open Fsam_ir
module A = Fsam_andersen.Solver

type edge_kind = Intra | Call of int | Ret of int

type t = {
  prog : Prog.t;
  succ : (edge_kind * int) list array;
  pred : (edge_kind * int) list array;
  fid_of : int array;
  cyclic : bool array; (* per gid: inside a cycle of its function's CFG *)
  collapsed : bool array; (* per gid: callsite inside a call-graph SCC *)
  recursive : bool array; (* per fid: on a call-graph cycle (fork edges included) *)
}

let prog t = t.prog
let succs t g = t.succ.(g)
let preds t g = t.pred.(g)
let entry_gid t fid = Prog.gid t.prog ~fid ~idx:0
let exit_gids t fid =
  List.map (fun i -> Prog.gid t.prog ~fid ~idx:i) (Prog.func t.prog fid).Func.exits

let stmt t g = Prog.stmt_at t.prog g
let fid_of t g = t.fid_of.(g)
let in_cfg_cycle t g = t.cyclic.(g)
let collapsed_callsite t g = t.collapsed.(g)
let recursive t fid = t.recursive.(fid)

let build prog ast =
  let n = Prog.n_stmts prog in
  let succ = Array.make n [] and pred = Array.make n [] in
  let fid_of = Array.make n 0 in
  let cyclic = Array.make n false in
  let collapsed = Array.make n false in
  let add kind u v =
    succ.(u) <- (kind, v) :: succ.(u);
    pred.(v) <- (kind, u) :: pred.(v)
  in
  (* call-graph SCCs for collapsed callsites *)
  let cg = A.call_graph ast in
  let cg_succs = Fsam_graph.Digraph.succs cg in
  let cg_scc = Fsam_graph.Scc.compute ~n:(Fsam_graph.Digraph.n_nodes cg) ~succs:cg_succs in
  let recursive =
    Array.init (Prog.n_funcs prog) (fun f ->
        not (Fsam_graph.Scc.is_trivial cg_scc ~succs:cg_succs f))
  in
  let same_scc f g =
    f < Array.length cg_scc.Fsam_graph.Scc.comp_of
    && g < Array.length cg_scc.Fsam_graph.Scc.comp_of
    && cg_scc.Fsam_graph.Scc.comp_of.(f) = cg_scc.Fsam_graph.Scc.comp_of.(g)
    && recursive.(f)
  in
  Prog.iter_funcs prog (fun f ->
      let fid = f.Func.fid in
      let base = Prog.gid prog ~fid ~idx:0 in
      (* intra-function cycles *)
      let succs = Array.get f.Func.succ in
      let scc = Fsam_graph.Scc.compute ~n:(Func.n_stmts f) ~succs in
      Func.iter_stmts f (fun i _ ->
          fid_of.(base + i) <- fid;
          if not (Fsam_graph.Scc.is_trivial scc ~succs i) then cyclic.(base + i) <- true);
      Func.iter_stmts f (fun i s ->
          let gid = base + i in
          let intra_succs = List.map (fun j -> base + j) f.Func.succ.(i) in
          match s with
          | Stmt.Call _ ->
            let callees = A.callees ast ~fid ~idx:i in
            if callees = [] then List.iter (fun v -> add Intra gid v) intra_succs
            else begin
              List.iter
                (fun callee ->
                  if same_scc fid callee then collapsed.(gid) <- true;
                  add (Call gid) gid (Prog.gid prog ~fid:callee ~idx:0);
                  List.iter
                    (fun ex ->
                      let exg = Prog.gid prog ~fid:callee ~idx:ex in
                      List.iter (fun v -> add (Ret gid) exg v) intra_succs)
                    (Prog.func prog callee).Func.exits)
                callees
            end
          | _ -> List.iter (fun v -> add Intra gid v) intra_succs));
  { prog; succ; pred; fid_of; cyclic; collapsed; recursive }
