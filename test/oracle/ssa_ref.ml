(* The partial-SSA construction before it was made linear: phi placement
   rescans every statement per variable and runs a forward liveness search
   from each frontier node. Kept verbatim as the reference a property test
   compares [Fsam_ir.Ssa.transform] against, program for program. *)

open Fsam_ir
open Fsam_dsa
open Fsam_graph

(* Per-function SSA state. *)
type state = {
  var_names : string Vec.t; (* shared across functions; grows *)
  mutable stacks : Stmt.var list array; (* current version per original var *)
}

let fresh st v =
  let name = Vec.get st.var_names v in
  let nv = Vec.push st.var_names (Printf.sprintf "%s#%d" name (Vec.length st.var_names)) in
  nv

(* Is [v] live-in at node [n]: some use of [v] reachable from [n] without
   first crossing a definition of [v]? Computed by forward search from [n]
   that stops at defs. *)
let live_in f ~uses_of ~defs_of n =
  let nstmts = Func.n_stmts f in
  let seen = Bitvec.create ~capacity:nstmts () in
  let stack = ref [ n ] in
  Bitvec.set seen n;
  let live = ref false in
  while (not !live) && !stack <> [] do
    match !stack with
    | [] -> ()
    | m :: tl ->
      stack := tl;
      if Bitvec.get uses_of m then live := true
      else if not (Bitvec.get defs_of m) then
        List.iter
          (fun s -> if Bitvec.set_if_unset seen s then stack := s :: !stack)
          f.Func.succ.(m)
  done;
  !live

let transform_func st (f : Func.t) =
  let n = Func.n_stmts f in
  let dom =
    Dominance.compute ~n ~succs:(Array.get f.Func.succ) ~preds:(Array.get f.Func.pred)
      ~entry:(Func.entry f)
  in
  (* Collect def sites per original var. *)
  let defs : (Stmt.var, int list) Hashtbl.t = Hashtbl.create 16 in
  let mentioned = Hashtbl.create 16 in
  Func.iter_stmts f (fun i s ->
      (match Stmt.def s with
      | Some d ->
        Hashtbl.replace defs d (i :: (Option.value ~default:[] (Hashtbl.find_opt defs d)));
        Hashtbl.replace mentioned d ()
      | None -> ());
      List.iter (fun u -> Hashtbl.replace mentioned u ()) (Stmt.uses s));
  (* Phi placement: iterated dominance frontier of def sites (plus entry as
     the implicit initial def), pruned by liveness. phis.(node) = orig vars *)
  let phis : Stmt.var list array = Array.make n [] in
  Hashtbl.iter
    (fun v sites ->
      if sites <> [] then begin
        let uses_of = Bitvec.create ~capacity:n () in
        let defs_of = Bitvec.create ~capacity:n () in
        Func.iter_stmts f (fun i s ->
            if List.mem v (Stmt.uses s) then begin
              Bitvec.set uses_of i;
              (* a use at i sees the version *before* i executes, so search
                 from i itself must treat i as a use point even if i also
                 defines v; handled because we test uses before defs. *)
              ()
            end;
            match Stmt.def s with Some d when d = v -> Bitvec.set defs_of i | _ -> ());
        let work = ref (Func.entry f :: sites) in
        let has_phi = Bitvec.create ~capacity:n () in
        let in_work = Bitvec.create ~capacity:n () in
        List.iter (fun s -> Bitvec.set in_work s) !work;
        while !work <> [] do
          match !work with
          | [] -> ()
          | d :: tl ->
            work := tl;
            List.iter
              (fun y ->
                if Dominance.reachable dom y && not (Bitvec.get has_phi y) then begin
                  if live_in f ~uses_of ~defs_of y then begin
                    Bitvec.set has_phi y;
                    phis.(y) <- v :: phis.(y);
                    if Bitvec.set_if_unset in_work y then work := y :: !work
                  end
                end)
              (Dominance.frontier dom d)
        done
      end)
    defs;
  (* Renaming over the dominator tree. For each node we produce the renamed
     phi definitions (dst, collected srcs ref) and the renamed statement. *)
  let phi_out : (Stmt.var * Stmt.var * Iset.t ref) list array = Array.make n [] in
  (* (orig var, new dst, arg set of new srcs) *)
  let new_stmt : Stmt.t array = Array.map (fun s -> s) f.Func.stmts in
  let top v = match st.stacks.(v) with x :: _ -> x | [] -> v in
  let rename_uses s =
    let r = top in
    match s with
    | Stmt.Addr_of _ -> s
    | Stmt.Copy c -> Stmt.Copy { c with src = r c.src }
    | Stmt.Phi ph -> Stmt.Phi { ph with srcs = List.map r ph.srcs }
    | Stmt.Load l -> Stmt.Load { l with src = r l.src }
    | Stmt.Store { dst; src } -> Stmt.Store { dst = r dst; src = r src }
    | Stmt.Gep gp -> Stmt.Gep { gp with src = r gp.src }
    | Stmt.Call c ->
      let target = match c.target with Stmt.Indirect v -> Stmt.Indirect (r v) | d -> d in
      Stmt.Call { c with target; args = List.map r c.args }
    | Stmt.Return (Some v) -> Stmt.Return (Some (r v))
    | Stmt.Return None -> s
    | Stmt.Fork fk ->
      let target = match fk.target with Stmt.Indirect v -> Stmt.Indirect (r v) | d -> d in
      Stmt.Fork
        { fk with target; args = List.map r fk.args; handle = Option.map r fk.handle }
    | Stmt.Join { handle } -> Stmt.Join { handle = r handle }
    | Stmt.Lock v -> Stmt.Lock (r v)
    | Stmt.Unlock v -> Stmt.Unlock (r v)
    | Stmt.Nop _ -> s
  in
  let rename_def s nv =
    match s with
    | Stmt.Addr_of a -> Stmt.Addr_of { a with dst = nv }
    | Stmt.Copy c -> Stmt.Copy { c with dst = nv }
    | Stmt.Phi ph -> Stmt.Phi { ph with dst = nv }
    | Stmt.Load l -> Stmt.Load { l with dst = nv }
    | Stmt.Gep gp -> Stmt.Gep { gp with dst = nv }
    | Stmt.Call c -> Stmt.Call { c with ret = Some nv }
    | _ -> s
  in
  (* Phi destination versions are created in a pre-pass so that renaming can
     feed arguments into the phis of not-yet-visited successors (back
     edges). *)
  Array.iteri
    (fun node vs ->
      phi_out.(node) <- List.map (fun v -> (v, fresh st v, ref Iset.empty)) vs)
    phis;
  let rec walk node =
    let pushed = ref [] in
    List.iter
      (fun (v, nv, _) ->
        st.stacks.(v) <- nv :: st.stacks.(v);
        pushed := v :: !pushed)
      phi_out.(node);
    let s = rename_uses new_stmt.(node) in
    let s =
      match Stmt.def s with
      | Some d ->
        let nv = fresh st d in
        st.stacks.(d) <- nv :: st.stacks.(d);
        pushed := d :: !pushed;
        rename_def s nv
      | None -> s
    in
    new_stmt.(node) <- s;
    List.iter
      (fun succ ->
        List.iter (fun (v, _, srcs) -> srcs := Iset.add (top v) !srcs) phi_out.(succ))
      f.Func.succ.(node);
    List.iter walk (Dominance.children dom node);
    List.iter
      (fun v -> st.stacks.(v) <- (match st.stacks.(v) with _ :: tl -> tl | [] -> []))
      (List.rev !pushed)
  in
  (* A phi at the entry node merges back-edge versions with the implicit
     entry version (the original variable, defined-as-null at entry). *)
  List.iter
    (fun (v, _, srcs) -> srcs := Iset.add v !srcs)
    phi_out.(Func.entry f);
  walk (Func.entry f);
  (* Materialise: phi statements precede their node. *)
  let new_index = Array.make n (-1) in
  let count = ref 0 in
  for i = 0 to n - 1 do
    count := !count + List.length phi_out.(i);
    new_index.(i) <- !count;
    incr count
  done;
  let total = !count in
  let stmts = Array.make total (Stmt.Nop "") in
  let succ = Array.make total [] in
  for i = 0 to n - 1 do
    let base = new_index.(i) - List.length phi_out.(i) in
    List.iteri
      (fun k (_, nv, srcs) ->
        stmts.(base + k) <- Stmt.Phi { dst = nv; srcs = Iset.elements !srcs };
        succ.(base + k) <- [ base + k + 1 ])
      phi_out.(i);
    stmts.(new_index.(i)) <- new_stmt.(i);
    succ.(new_index.(i)) <-
      List.map
        (fun s -> new_index.(s) - List.length phi_out.(s))
        f.Func.succ.(i)
  done;
  let pred = Array.make total [] in
  Array.iteri (fun i ss -> List.iter (fun j -> pred.(j) <- i :: pred.(j)) ss) succ;
  let exits = ref [] in
  Array.iteri (fun i s -> match s with Stmt.Return _ -> exits := i :: !exits | _ -> ()) stmts;
  Func.
    {
      fid = f.Func.fid;
      fname = f.Func.fname;
      params = f.Func.params;
      stmts;
      succ;
      pred;
      exits = List.rev !exits;
    }

let transform p =
  let var_names = Vec.create () in
  for v = 0 to Prog.n_vars p - 1 do
    ignore (Vec.push var_names (Prog.var_name p v))
  done;
  let st = { var_names; stacks = [||] } in
  let funcs =
    Array.init (Prog.n_funcs p) (fun i ->
        (* reset stacks sized to the current variable count; versions created
           for earlier functions are never on a stack here *)
        (* stacks are indexed by original variable ids only; versions created
           for earlier functions never appear on a stack here *)
        st.stacks <- Array.make (Vec.length st.var_names + 1) [];
        transform_func st (Prog.func p i))
  in
  (* Rebuild fork-site table from the renamed functions. *)
  let n_forks = Prog.n_forks p in
  let fork_sites = Array.make n_forks (0, 0) in
  Array.iter
    (fun f ->
      Func.iter_stmts f (fun i s ->
          match s with
          | Stmt.Fork { fork_id; _ } -> fork_sites.(fork_id) <- (f.Func.fid, i)
          | _ -> ()))
    funcs;
  let thread_objs = Array.init n_forks (fun k -> Prog.thread_obj_of_fork p k) in
  let objs = ref [] in
  Prog.iter_objs p (fun o -> objs := o :: !objs);
  Prog.make ~funcs
    ~var_names:(Vec.to_array st.var_names)
    ~objs:(List.rev !objs) ~fork_sites ~thread_objs ~main:(Prog.main_fid p)
