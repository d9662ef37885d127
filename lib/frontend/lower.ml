open Ast
open Fsam_ir
module B = Builder

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type binding =
  | Reg of Stmt.var
  | Obj of Stmt.obj * Ast.ty
  | Fun of int

type env = {
  b : B.t;
  fid : int;
  globals : (string, binding) Hashtbl.t;
  locals : (string, binding) Hashtbl.t;
}

let lookup env name =
  match Hashtbl.find_opt env.locals name with
  | Some b -> b
  | None -> (
    match Hashtbl.find_opt env.globals name with
    | Some b -> b
    | None -> err "unknown identifier %s" name)

let is_array_ty = function Tarray _ -> true | _ -> false

(* Does the function body take the address of local [name], or use it in a
   way that requires a memory cell? *)
let rec addr_taken_in_block name block = List.exists (addr_taken_in_stmt name) block

and addr_taken_in_stmt name = function
  | Sdecl (_, _, Some e) -> addr_taken_in_expr name e
  | Sdecl _ -> false
  | Sassign (l, r) -> addr_taken_in_expr name l || addr_taken_in_expr name r
  | Sexpr e | Sjoin e | Slock e | Sunlock e -> addr_taken_in_expr name e
  | Sif (c, t, e) ->
    addr_taken_in_expr name c || addr_taken_in_block name t || addr_taken_in_block name e
  | Swhile (c, body) -> addr_taken_in_expr name c || addr_taken_in_block name body
  | Sreturn (Some e) -> addr_taken_in_expr name e
  | Sreturn None | Sbarrier -> false
  | Sfork (h, t, args) ->
    (match h with Some h -> addr_taken_in_expr name h | None -> false)
    || addr_taken_in_expr name t
    || List.exists (addr_taken_in_expr name) args

and addr_taken_in_expr name = function
  | Eaddr (Eid x) -> x = name
  | Eaddr e | Ederef e | Efield (e, _, _) -> addr_taken_in_expr name e
  | Eindex (e, i) -> addr_taken_in_expr name e || addr_taken_in_expr name i
  | Ecall (f, args) ->
    addr_taken_in_expr name f || List.exists (addr_taken_in_expr name) args
  | Ebinop (_, a, b) -> addr_taken_in_expr name a || addr_taken_in_expr name b
  | Eid _ | Eint _ | Enull | Enondet | Emalloc -> false

let needs_cell ty body name =
  match ty with
  | Tstruct _ | Tlock | Tthread | Tarray _ -> true
  | _ -> addr_taken_in_block name body

(* -- Expression lowering --------------------------------------------------- *)

let rec lower_expr env fb e : Stmt.var =
  match e with
  | Eid name -> (
    match lookup env name with
    | Reg v -> v
    | Fun fid ->
      let t = B.fresh_var env.b ("&" ^ name) in
      B.addr_of fb t (B.func_obj env.b fid);
      t
    | Obj (o, ty) ->
      let addr = B.fresh_var env.b ("&" ^ name) in
      B.addr_of fb addr o;
      if is_array_ty ty then addr (* array-to-pointer decay *)
      else begin
        let v = B.fresh_var env.b (name ^ ".val") in
        B.load fb v addr;
        v
      end)
  | Eint _ | Enull | Enondet -> B.fresh_var env.b "zero"
  | Emalloc ->
    let o = B.heap_obj env.b ~owner:env.fid "malloc" in
    let v = B.fresh_var env.b "heap" in
    B.addr_of fb v o;
    v
  | Eaddr e' -> lower_addr env fb e'
  | Ederef e' ->
    let p = lower_expr env fb e' in
    let v = B.fresh_var env.b "deref" in
    B.load fb v p;
    v
  | Efield _ | Eindex _ ->
    let addr = lower_addr env fb e in
    let v = B.fresh_var env.b "fld" in
    B.load fb v addr;
    v
  | Ecall (callee, args) ->
    let argv = List.map (lower_expr env fb) args in
    let ret = B.fresh_var env.b "ret" in
    (match callee with
    | Eid name -> (
      match Hashtbl.find_opt env.globals name with
      | Some (Fun fid) -> B.call fb ~ret (Stmt.Direct fid) argv
      | _ ->
        let fp = lower_expr env fb callee in
        B.call fb ~ret (Stmt.Indirect fp) argv)
    | _ ->
      let fp = lower_expr env fb callee in
      B.call fb ~ret (Stmt.Indirect fp) argv);
    ret
  | Ebinop (_, a, b) ->
    ignore (lower_expr env fb a);
    ignore (lower_expr env fb b);
    B.fresh_var env.b "int"

and lower_addr env fb e : Stmt.var =
  match e with
  | Eid name -> (
    match lookup env name with
    | Obj (o, _) ->
      let t = B.fresh_var env.b ("&" ^ name) in
      B.addr_of fb t o;
      t
    | Reg _ -> err "cannot take the address of register %s (frontend bug)" name
    | Fun fid ->
      let t = B.fresh_var env.b ("&" ^ name) in
      B.addr_of fb t (B.func_obj env.b fid);
      t)
  | Ederef e' -> lower_expr env fb e'
  | Efield (base, f, arrow) ->
    let basep = if arrow then lower_expr env fb base else lower_addr env fb base in
    let t = B.fresh_var env.b ("&" ^ f) in
    B.gep fb t basep f;
    t
  | Eindex (base, idx) ->
    ignore (lower_expr env fb idx);
    (match base with
    | Eid name -> (
      match lookup env name with
      | Obj (o, ty) when is_array_ty ty ->
        let t = B.fresh_var env.b ("&" ^ name) in
        B.addr_of fb t o;
        t
      | _ -> lower_expr env fb base)
    | _ -> lower_expr env fb base)
  | Eaddr _ | Ecall _ | Ebinop _ | Eint _ | Enull | Enondet | Emalloc ->
    err "expression is not an lvalue"

(* -- Statement lowering ----------------------------------------------------- *)

let rec lower_stmt env fb s =
  match s with
  | Sdecl (ty, name, init) ->
    (* binding was pre-registered; just run the initializer *)
    (match init with
    | Some e -> lower_stmt env fb (Sassign (Eid name, e))
    | None -> ());
    ignore ty
  | Sassign (lhs, rhs) -> (
    let v = lower_expr env fb rhs in
    match lhs with
    | Eid name -> (
      match lookup env name with
      | Reg r -> B.copy fb r v
      | Obj (o, _) ->
        let addr = B.fresh_var env.b ("&" ^ name) in
        B.addr_of fb addr o;
        B.store fb addr v
      | Fun _ -> err "cannot assign to function %s" name)
    | _ ->
      let addr = lower_addr env fb lhs in
      B.store fb addr v)
  | Sexpr e -> ignore (lower_expr env fb e)
  | Sif (c, thn, els) ->
    ignore (lower_expr env fb c);
    B.if_ fb
      ~then_:(fun fb -> List.iter (lower_stmt env fb) thn)
      ~else_:(fun fb -> List.iter (lower_stmt env fb) els)
  | Swhile (c, body) ->
    ignore (lower_expr env fb c);
    B.while_ fb (fun fb ->
        List.iter (lower_stmt env fb) body;
        ignore (lower_expr env fb c))
  | Sreturn e ->
    let v = Option.map (lower_expr env fb) e in
    B.ret fb v
  | Sfork (handle, target, args) -> (
    let h = Option.map (lower_expr env fb) handle in
    let argv = List.map (lower_expr env fb) args in
    match target with
    | Eid name when (match Hashtbl.find_opt env.globals name with Some (Fun _) -> true | _ -> false)
      -> (
      match Hashtbl.find_opt env.globals name with
      | Some (Fun fid) -> B.fork fb ?handle:h (Stmt.Direct fid) argv
      | _ -> assert false)
    | _ ->
      let fp = lower_expr env fb target in
      B.fork fb ?handle:h (Stmt.Indirect fp) argv)
  | Sjoin h ->
    let hv = lower_expr env fb h in
    B.join fb hv
  | Slock e ->
    let v = lower_expr env fb e in
    B.lock fb v
  | Sunlock e ->
    let v = lower_expr env fb e in
    B.unlock fb v
  | Sbarrier -> B.nop fb "barrier"

(* -- Program lowering -------------------------------------------------------- *)

(* Register every local declaration of a block (recursively) as either a
   register or a memory object. MiniC scoping is function-wide (like C with
   all declarations hoisted); duplicate names are rejected. *)
let rec register_locals env ~body ~fid block =
  List.iter
    (fun s ->
      match s with
      | Sdecl (ty, name, _) ->
        if Hashtbl.mem env.locals name then err "duplicate local %s" name;
        if needs_cell ty body name then
          Hashtbl.replace env.locals name
            (Obj (B.stack_obj env.b ~owner:fid name, ty))
        else Hashtbl.replace env.locals name (Reg (B.fresh_var env.b name))
      | Sif (_, t, e) ->
        register_locals env ~body ~fid t;
        register_locals env ~body ~fid e
      | Swhile (_, b') -> register_locals env ~body ~fid b'
      | _ -> ())
    block

let lower_raw (prog : Ast.program) : Prog.t =
  let b = B.create () in
  let globals : (string, binding) Hashtbl.t = Hashtbl.create 32 in
  (* pass 1: declare functions *)
  let funs =
    List.filter_map
      (function
        | Dfun f ->
          if Hashtbl.mem globals f.fname then err "duplicate function %s" f.fname;
          let fid = B.declare b f.fname ~params:(List.map snd f.params) in
          Hashtbl.replace globals f.fname (Fun fid);
          Some (f, fid)
        | _ -> None)
      prog
  in
  (* pass 2: globals *)
  let global_inits = ref [] in
  List.iter
    (function
      | Dglobal (ty, name, init) ->
        if Hashtbl.mem globals name then err "duplicate global %s" name;
        let o = B.global_obj ~is_array:(is_array_ty ty) b name in
        Hashtbl.replace globals name (Obj (o, ty));
        (match init with Some e -> global_inits := (name, e) :: !global_inits | None -> ())
      | _ -> ())
    prog;
  let global_inits = List.rev !global_inits in
  (match Hashtbl.find_opt globals "main" with
  | Some (Fun _) -> ()
  | _ -> err "program has no main function");
  (* pass 3: function bodies *)
  List.iter
    (fun (f, fid) ->
      let env = { b; fid; globals; locals = Hashtbl.create 16 } in
      List.iteri
        (fun i (ty, pname) ->
          match ty with
          | Tstruct _ | Tarray _ -> err "%s: struct/array parameters are unsupported" f.fname
          | _ -> Hashtbl.replace env.locals pname (Reg (B.param b fid i)))
        f.params;
      register_locals env ~body:f.body ~fid f.body;
      B.define b fid (fun fb ->
          if f.fname = "main" then
            List.iter
              (fun (name, e) -> lower_stmt env fb (Sassign (Eid name, e)))
              global_inits;
          List.iter (lower_stmt env fb) f.body))
    funs;
  let raw = B.finish b in
  (match Validate.check ~ssa:false raw with
  | Ok () -> ()
  | Error es -> err "lowering produced invalid IR: %s" (String.concat "; " es));
  raw

let lower prog =
  let ssa = Ssa.transform (lower_raw prog) in
  Validate.check_exn ssa;
  (* compact the structural nops the lowering emitted *)
  let compacted = Simplify.compact ssa in
  Validate.check_exn compacted;
  compacted

let compile_string src = lower (Parser.parse_string src)
