open Fsam_ir
module Mta = Fsam_mta

type t = {
  r_stmts : int;
  r_funcs : int;
  r_vars : int;
  r_objs : int;
  r_andersen_iters : int;
  r_andersen_facts : int;
  r_reachable_funcs : int;
  r_threads : int;
  r_multi_forked : int;
  r_instances : int;
  r_handled_join_insts : int;
  r_mhp_iters : int;
  r_mhp_facts : int;
  r_lock_spans : int;
  r_svfg_nodes : int;
  r_svfg_edges : int;
  r_thread_aware_edges : int;
  r_solver_iters : int;
  r_pts_facts : int;
  r_strong_updates : int;
  r_weak_updates : int;
  r_races : int;
  r_deadlocks : int;
  r_instrumented : int;
  r_accesses : int;
  r_run : Fsam_obs.Span.t;
}

let build (d : Driver.t) =
  let tm = d.Driver.tm in
  let multi = ref 0 in
  for t = 0 to Mta.Threads.n_threads tm - 1 do
    if Mta.Threads.is_multi tm t then incr multi
  done;
  let handled = ref 0 in
  for i = 0 to Mta.Threads.n_insts tm - 1 do
    if Mta.Threads.join_kills tm i <> [] then incr handled
  done;
  let races = List.length (Races.detect d) in
  let deadlocks = List.length (Deadlocks.detect d) in
  let instr = Instrument.analyze d in
  {
    r_stmts = Prog.n_stmts d.Driver.prog;
    r_funcs = Prog.n_funcs d.Driver.prog;
    r_vars = Prog.n_vars d.Driver.prog;
    r_objs = Prog.n_objs d.Driver.prog;
    r_andersen_iters = Fsam_andersen.Solver.n_solver_iterations d.Driver.ast;
    r_andersen_facts = Fsam_andersen.Solver.total_pts_size d.Driver.ast;
    r_reachable_funcs =
      Fsam_dsa.Bitvec.cardinal (Fsam_andersen.Solver.reachable_funcs d.Driver.ast);
    r_threads = Mta.Threads.n_threads tm;
    r_multi_forked = !multi;
    r_instances = Mta.Threads.n_insts tm;
    r_handled_join_insts = !handled;
    r_mhp_iters = Mta.Mhp.n_iterations d.Driver.mhp;
    r_mhp_facts = Mta.Mhp.total_fact_size d.Driver.mhp;
    r_lock_spans = Mta.Locks.n_spans d.Driver.locks;
    r_svfg_nodes = Fsam_memssa.Svfg.n_nodes d.Driver.svfg;
    r_svfg_edges = Fsam_memssa.Svfg.n_edges d.Driver.svfg;
    r_thread_aware_edges = Fsam_memssa.Svfg.n_thread_aware_edges d.Driver.svfg;
    r_solver_iters = Sparse.n_iterations d.Driver.sparse;
    r_pts_facts = Sparse.pts_entries d.Driver.sparse;
    r_strong_updates = Sparse.n_strong_updates d.Driver.sparse;
    r_weak_updates = Sparse.n_weak_updates d.Driver.sparse;
    r_races = races;
    r_deadlocks = deadlocks;
    r_instrumented = instr.Instrument.instrumented;
    r_accesses = instr.Instrument.total_accesses;
    r_run = d.Driver.root;
  }

module J = Fsam_obs.Json

(* phase_seconds key -> span name *)
let phase_spans =
  [
    ("pre", "phase.pre");
    ("thread_model", "phase.threads");
    ("interleaving", "phase.mhp");
    ("lock", "phase.locks");
    ("svfg", "phase.svfg");
    ("solve", "phase.solve");
  ]

let phase_seconds root =
  J.Obj (List.map (fun (k, name) -> (k, J.Float (Fsam_obs.Span.duration name root))) phase_spans)

let to_json r =
  J.Obj
    [
      ( "program",
        J.Obj
          [
            ("stmts", J.Int r.r_stmts);
            ("funcs", J.Int r.r_funcs);
            ("vars", J.Int r.r_vars);
            ("objs", J.Int r.r_objs);
          ] );
      ( "pre_analysis",
        J.Obj
          [
            ("iterations", J.Int r.r_andersen_iters);
            ("facts", J.Int r.r_andersen_facts);
            ("reachable_funcs", J.Int r.r_reachable_funcs);
          ] );
      ( "thread_model",
        J.Obj
          [
            ("threads", J.Int r.r_threads);
            ("multi_forked", J.Int r.r_multi_forked);
            ("instances", J.Int r.r_instances);
            ("handled_join_insts", J.Int r.r_handled_join_insts);
          ] );
      ( "interleaving",
        J.Obj [ ("iterations", J.Int r.r_mhp_iters); ("facts", J.Int r.r_mhp_facts) ] );
      ("lock_analysis", J.Obj [ ("spans", J.Int r.r_lock_spans) ]);
      ( "def_use_graph",
        J.Obj
          [
            ("nodes", J.Int r.r_svfg_nodes);
            ("edges", J.Int r.r_svfg_edges);
            ("thread_aware_edges", J.Int r.r_thread_aware_edges);
          ] );
      ( "sparse_solve",
        J.Obj
          [
            ("iterations", J.Int r.r_solver_iters);
            ("facts", J.Int r.r_pts_facts);
            ("strong_updates", J.Int r.r_strong_updates);
            ("weak_updates", J.Int r.r_weak_updates);
          ] );
      ( "clients",
        J.Obj
          [
            ("races", J.Int r.r_races);
            ("deadlocks", J.Int r.r_deadlocks);
            ("instrumented_accesses", J.Int r.r_instrumented);
            ("total_accesses", J.Int r.r_accesses);
          ] );
      ("phase_seconds", phase_seconds r.r_run);
    ]

let pp ppf r =
  let wall name = Fsam_obs.Span.duration name r.r_run in
  Format.fprintf ppf
    "@[<v>program:        %d statements, %d functions, %d variables, %d objects@,\
     pre-analysis:   %d iterations, %d facts, %d reachable functions (%.3fs)@,\
     thread model:   %d threads (%d multi-forked), %d statement instances, %d \
     join/exit kill points (%.3fs)@,\
     interleaving:   %d iterations, %d interference facts (%.3fs)@,\
     lock analysis:  %d lock-release spans (%.3fs)@,\
     def-use graph:  %d nodes, %d edges (%d thread-aware) (%.3fs)@,\
     sparse solve:   %d iterations, %d facts, %d strong / %d weak update events \
     (%.3fs)@,\
     clients:        %d races, %d deadlocks, %d/%d accesses need race \
     instrumentation@]"
    r.r_stmts r.r_funcs r.r_vars r.r_objs r.r_andersen_iters r.r_andersen_facts
    r.r_reachable_funcs (wall "phase.pre") r.r_threads r.r_multi_forked r.r_instances
    r.r_handled_join_insts (wall "phase.threads") r.r_mhp_iters r.r_mhp_facts
    (wall "phase.mhp") r.r_lock_spans (wall "phase.locks") r.r_svfg_nodes r.r_svfg_edges
    r.r_thread_aware_edges (wall "phase.svfg") r.r_solver_iters r.r_pts_facts
    r.r_strong_updates r.r_weak_updates (wall "phase.solve") r.r_races r.r_deadlocks
    r.r_instrumented r.r_accesses
