open Fsam_dsa
open Fsam_ir

type t = { mods : Iset.t array; refs : Iset.t array }

let direct prog ast f =
  let m = ref Iset.empty and r = ref Iset.empty in
  Func.iter_stmts f (fun _ s ->
      match s with
      | Stmt.Load { src; _ } -> r := Iset.union !r (Solver.pt_var ast src)
      | Stmt.Store { dst; _ } ->
        (* a store is a chi: def plus use of the old contents (weak updates) *)
        let tgts = Solver.pt_var ast dst in
        m := Iset.union !m tgts;
        r := Iset.union !r tgts
      | Stmt.Fork { handle = Some h; _ } ->
        (* the fork writes the thread object into the handle cells *)
        m := Iset.union !m (Solver.pt_var ast h)
      | Stmt.Join { handle } ->
        r := Iset.union !r (Solver.pt_var ast handle)
      | _ -> ());
  ignore prog;
  (!m, !r)

let compute prog ast =
  let n = Prog.n_funcs prog in
  let mods = Array.make n Iset.empty and refs = Array.make n Iset.empty in
  Prog.iter_funcs prog (fun f ->
      let m, r = direct prog ast f in
      mods.(f.Func.fid) <- m;
      refs.(f.Func.fid) <- r);
  (* Propagate callee summaries bottom-up over the call graph (with fork
     edges). Components are processed callees-first; within a component a
     small fixpoint loop handles recursion. *)
  let cg = Solver.call_graph ast in
  let scc =
    Fsam_graph.Scc.compute ~n:(Fsam_graph.Digraph.n_nodes cg) ~succs:(Fsam_graph.Digraph.succs cg)
  in
  for c = 0 to scc.Fsam_graph.Scc.n_comps - 1 do
    let members = scc.Fsam_graph.Scc.comps.(c) in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun f ->
          if f < n then
            Fsam_graph.Digraph.iter_succs cg f (fun g ->
                let m = Iset.union mods.(f) mods.(g) in
                let r = Iset.union refs.(f) refs.(g) in
                if not (m == mods.(f)) then begin
                  mods.(f) <- m;
                  changed := true
                end;
                if not (r == refs.(f)) then begin
                  refs.(f) <- r;
                  changed := true
                end))
        members;
      (* single pass suffices for trivial components *)
      match members with [ _ ] -> changed := false | _ -> ()
    done
  done;
  { mods; refs }

let mod_of t f = t.mods.(f)
let ref_of t f = t.refs.(f)

let over_callees t ast ~fid ~idx proj =
  List.fold_left
    (fun acc g -> Iset.union acc (proj t g))
    Iset.empty
    (Solver.callees ast ~fid ~idx)

let callsite_mod t ast ~fid ~idx = over_callees t ast ~fid ~idx mod_of
let callsite_ref t ast ~fid ~idx = over_callees t ast ~fid ~idx ref_of
