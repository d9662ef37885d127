open Fsam_dsa

type t = {
  funcs : Func.t array;
  var_names : string array;
  objs : Memobj.t Vec.t;
  fork_sites : (int * int) array;
  thread_objs : int array;
  main : int;
  stmt_base : int array;
  total_stmts : int;
  field_cache : (int * string, int) Hashtbl.t;
  by_name : (string, int) Hashtbl.t;
  thread_obj_rev : (int, int) Hashtbl.t; (* thread object id -> fork id *)
}

let make ~funcs ~var_names ~objs ~fork_sites ~thread_objs ~main =
  let n = Array.length funcs in
  let stmt_base = Array.make n 0 in
  let total = ref 0 in
  Array.iteri
    (fun i f ->
      stmt_base.(i) <- !total;
      total := !total + Func.n_stmts f)
    funcs;
  let by_name = Hashtbl.create 16 in
  Array.iteri (fun i f -> Hashtbl.replace by_name f.Func.fname i) funcs;
  let thread_obj_rev = Hashtbl.create 16 in
  Array.iteri (fun k o -> Hashtbl.replace thread_obj_rev o k) thread_objs;
  {
    funcs;
    var_names;
    objs = Vec.of_list objs;
    fork_sites;
    thread_objs;
    main;
    stmt_base;
    total_stmts = !total;
    field_cache = Hashtbl.create 64;
    by_name;
    thread_obj_rev;
  }

let n_funcs p = Array.length p.funcs
let func p f = p.funcs.(f)
let find_func p name = Hashtbl.find_opt p.by_name name
let main_fid p = p.main
let iter_funcs p f = Array.iter f p.funcs
let n_vars p = Array.length p.var_names
let var_name p v = p.var_names.(v)
let n_objs p = Vec.length p.objs
let obj p o = Vec.get p.objs o
let obj_name p o = (obj p o).Memobj.name
let iter_objs p f = Vec.iter f p.objs

(* Lowering leaves each variable's pre-SSA entry ("q") dead in the table
   next to its live SSA versions ("q#7"), so a name with SSA versions
   resolves to the highest-numbered one — the final version. Any other name
   (a parameter, a Builder-made variable, a full "q#7") matches exactly,
   lowest id first; objects likewise. *)
let lookup p kind s =
  let n, name = match kind with `Var -> (n_vars p, var_name p) | `Obj -> (n_objs p, obj_name p) in
  let rec scan i step hit =
    if i < 0 || i >= n then None else if hit i then Some i else scan (i + step) step hit
  in
  let exact () = scan 0 1 (fun i -> String.equal (name i) s) in
  match (int_of_string_opt s, kind) with
  | Some i, _ -> if i >= 0 && i < n then Some i else None
  | None, `Var -> (
    let version = s ^ "#" in
    match scan (n - 1) (-1) (fun v -> String.starts_with ~prefix:version (name v)) with
    | None -> exact ()
    | found -> found)
  | None, `Obj -> exact ()

let field_obj p ~base ~field =
  let b = obj p base in
  if b.Memobj.is_array then base
  else begin
    (* flatten nested fields onto the root object *)
    let root = Memobj.base_of b in
    match Hashtbl.find_opt p.field_cache (root, field) with
    | Some o -> o
    | None ->
      let id = Vec.length p.objs in
      let info =
        Memobj.
          {
            id;
            name = Printf.sprintf "%s.%s" (obj p root).name field;
            kind = Field { base = root; field };
            is_array = false;
          }
      in
      ignore (Vec.push p.objs info);
      Hashtbl.replace p.field_cache (root, field) id;
      id
  end

let find_field_obj p ~base ~field =
  let b = obj p base in
  if b.Memobj.is_array then Some base
  else Hashtbl.find_opt p.field_cache (Memobj.base_of b, field)

let fields_of p base =
  (* Hashtbl.fold order depends on internal bucket layout; sort so callers
     emitting this list (reports, digests) are byte-stable across runs. *)
  Hashtbl.fold (fun (b, _) o acc -> if b = base then o :: acc else acc) p.field_cache []
  |> List.sort compare

let n_forks p = Array.length p.fork_sites
let fork_site p k = p.fork_sites.(k)
let thread_obj_of_fork p k = p.thread_objs.(k)
let fork_of_thread_obj p o = Hashtbl.find_opt p.thread_obj_rev o

let n_stmts p = p.total_stmts
let gid p ~fid ~idx = p.stmt_base.(fid) + idx

let func_of_gid p g =
  (* binary search over stmt_base *)
  let lo = ref 0 and hi = ref (Array.length p.stmt_base - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if p.stmt_base.(mid) <= g then lo := mid else hi := mid - 1
  done;
  !lo

let of_gid p g =
  let f = func_of_gid p g in
  (f, g - p.stmt_base.(f))

let stmt_at p g =
  let f, i = of_gid p g in
  Func.stmt p.funcs.(f) i

let iter_stmts p f =
  Array.iteri
    (fun fid fn ->
      Func.iter_stmts fn (fun i s -> f (p.stmt_base.(fid) + i) fid s))
    p.funcs

let pp_stmt p ppf s =
  Stmt.pp
    ~names:(fun v -> var_name p v)
    ~obj_names:(fun o -> obj_name p o)
    ~fn_names:(fun f -> (func p f).Func.fname)
    ppf s

let pp ppf p =
  iter_funcs p (fun f ->
      Format.fprintf ppf "@[<v 2>%s(%s):@," f.Func.fname
        (String.concat ", " (List.map (var_name p) f.Func.params));
      Func.iter_stmts f (fun i s ->
          Format.fprintf ppf "%3d: %a  -> [%s]@," i (pp_stmt p) s
            (String.concat "," (List.map string_of_int f.Func.succ.(i))));
      Format.fprintf ppf "@]@,")
