(* Property-based validation on random multithreaded programs:

   - soundness against the concrete interpreter: every points-to fact
     observed in any randomized execution schedule is included in FSAM's
     (and NonSparse's, and Andersen's) results;
   - FSAM refines Andersen (flow-sensitivity only removes targets);
   - on sequential programs FSAM and NonSparse agree on all top-level
     points-to sets (the sparse analysis "is as precise as the traditional
     iterative data-flow analysis", paper §3.4);
   - each phase-off ablation produces a superset of the full analysis;
   - a solve warm-started from a cold fixpoint with every unit seeded
     learns nothing and reaches the same fixpoint. *)

open Fsam_ir
module D = Fsam_core.Driver
module W = Fsam_workloads.Rand_prog
module I = Fsam_interp.Interp
module Iset = Fsam_dsa.Iset

let n_programs = 25
let n_schedules = 6

let run_fsam ?config prog = D.run ?config prog

let check_sound_against_interp ~name static_pt static_mem prog =
  for sched = 0 to n_schedules - 1 do
    let r = I.run ~seed:sched prog in
    List.iter
      (fun o ->
        let pt = static_pt o.I.obs_var in
        if not (Iset.mem o.I.obs_obj pt) then
          Alcotest.failf "%s: unsound: observed %s in pt(%s) at gid %d, static %s" name
            (Prog.obj_name prog o.I.obs_obj)
            (Prog.var_name prog o.I.obs_var)
            o.I.obs_gid
            (Format.asprintf "%a" Iset.pp pt))
      r.I.observations;
    List.iter
      (fun (l, tgt) ->
        if not (Iset.mem tgt (static_mem l)) then
          Alcotest.failf "%s: unsound memory: %s may contain %s" name
            (Prog.obj_name prog l) (Prog.obj_name prog tgt))
      r.I.mem_facts
  done

let test_fsam_sound () =
  for seed = 0 to n_programs - 1 do
    let prog = W.generate ~seed ~size:24 () in
    let d = run_fsam prog in
    check_sound_against_interp ~name:(Printf.sprintf "fsam/seed%d" seed)
      (fun v -> Fsam_core.Sparse.pt_top d.D.sparse v)
      (fun o -> Fsam_core.Sparse.pt_obj_anywhere d.D.sparse o)
      prog
  done

let test_andersen_sound () =
  for seed = 0 to n_programs - 1 do
    let prog = W.generate ~seed ~size:24 () in
    let ast = Fsam_andersen.Solver.run prog in
    check_sound_against_interp ~name:(Printf.sprintf "andersen/seed%d" seed)
      (fun v -> Fsam_andersen.Solver.pt_var ast v)
      (fun o -> Fsam_andersen.Solver.pt_obj ast o)
      prog
  done

let test_nonsparse_sound () =
  for seed = 0 to n_programs - 1 do
    let prog = W.generate ~seed ~size:20 () in
    match D.run_nonsparse prog with
    | Fsam_core.Nonsparse.Done ns, _ ->
      for sched = 0 to n_schedules - 1 do
        let r = I.run ~seed:sched prog in
        List.iter
          (fun o ->
            if not (Iset.mem o.I.obs_obj (Fsam_core.Nonsparse.pt_top ns o.I.obs_var)) then
              Alcotest.failf "nonsparse/seed%d unsound on %s" seed
                (Prog.var_name prog o.I.obs_var))
          r.I.observations
      done
    | Fsam_core.Nonsparse.Timeout _, _ -> Alcotest.fail "nonsparse timed out on tiny program"
  done

let test_fsam_refines_andersen () =
  for seed = 0 to n_programs - 1 do
    let prog = W.generate ~seed ~size:28 () in
    let d = run_fsam prog in
    for v = 0 to Prog.n_vars prog - 1 do
      let fs = Fsam_core.Sparse.pt_top d.D.sparse v in
      let anders = Fsam_andersen.Solver.pt_var d.D.ast v in
      if not (Iset.subset fs anders) then
        Alcotest.failf "seed %d: pt_fsam(%s) ⊄ pt_andersen" seed (Prog.var_name prog v)
    done
  done

let test_sequential_parity_with_nonsparse () =
  for seed = 0 to n_programs - 1 do
    let prog = W.generate ~forks:false ~seed ~size:24 () in
    let d = run_fsam prog in
    match D.run_nonsparse prog with
    | Fsam_core.Nonsparse.Done ns, _ ->
      for v = 0 to Prog.n_vars prog - 1 do
        let a = Fsam_core.Sparse.pt_top d.D.sparse v in
        let b = Fsam_core.Nonsparse.pt_top ns v in
        if not (Iset.equal a b) then
          Alcotest.failf "seed %d: sequential parity broken on %s: sparse %s vs nonsparse %s"
            seed (Prog.var_name prog v)
            (Format.asprintf "%a" Iset.pp a)
            (Format.asprintf "%a" Iset.pp b)
      done
    | Fsam_core.Nonsparse.Timeout _, _ -> Alcotest.fail "nonsparse timeout"
  done

let test_ablations_are_supersets () =
  for seed = 0 to 11 do
    let prog () = W.generate ~seed ~size:24 () in
    let full = run_fsam (prog ()) in
    let check name config =
      let ab = run_fsam ~config (prog ()) in
      for v = 0 to Prog.n_vars full.D.prog - 1 do
        let f = Fsam_core.Sparse.pt_top full.D.sparse v in
        let a = Fsam_core.Sparse.pt_top ab.D.sparse v in
        if not (Iset.subset f a) then
          Alcotest.failf "seed %d: %s ablation lost facts on %s" seed name
            (Prog.var_name full.D.prog v)
      done
    in
    check "no-interleaving" D.no_interleaving;
    check "no-value-flow" D.no_value_flow;
    check "no-lock" D.no_lock
  done

let test_multithreaded_nonsparse_superset_of_fsam_on_top_level () =
  (* NonSparse + PCG is coarser than FSAM on multithreaded programs *)
  for seed = 0 to 11 do
    let prog = W.generate ~seed ~size:20 () in
    let d = run_fsam prog in
    match D.run_nonsparse prog with
    | Fsam_core.Nonsparse.Done ns, _ ->
      for v = 0 to Prog.n_vars prog - 1 do
        let f = Fsam_core.Sparse.pt_top d.D.sparse v in
        let n = Fsam_core.Nonsparse.pt_top ns v in
        if not (Iset.subset f n) then
          Alcotest.failf "seed %d: fsam ⊄ nonsparse on %s: %s vs %s" seed
            (Prog.var_name prog v)
            (Format.asprintf "%a" Iset.pp f)
            (Format.asprintf "%a" Iset.pp n)
      done
    | Fsam_core.Nonsparse.Timeout _, _ -> Alcotest.fail "nonsparse timeout"
  done

let test_minic_end_to_end_sound () =
  (* random MiniC source through the full frontend, then the soundness
     oracle — catches lowering bugs against the executable semantics *)
  for seed = 0 to n_programs - 1 do
    let src = Fsam_workloads.Rand_minic.generate ~seed ~size:18 in
    let prog =
      try Fsam_frontend.Lower.compile_string src
      with e ->
        Alcotest.failf "seed %d failed to compile: %s\n%s" seed (Printexc.to_string e) src
    in
    let d = run_fsam prog in
    check_sound_against_interp ~name:(Printf.sprintf "minic/seed%d" seed)
      (fun v -> Fsam_core.Sparse.pt_top d.D.sparse v)
      (fun o -> Fsam_core.Sparse.pt_obj_anywhere d.D.sparse o)
      prog
  done

(* The [Driver.warm_hooks.wh_solve] path, as snapshot restore drives it:
   a second run pre-loaded with a cold run's facts (mapped by SVFG node
   structure) and seeded with every unit must learn nothing new — zero
   growth — and land on the identical fixpoint. *)
let prop_warm_solve_sweep =
  QCheck.Test.make ~count:25 ~name:"wh_solve sweep from a cold fixpoint grows nothing"
    QCheck.(int_bound 1000)
    (fun seed ->
      let module S = Fsam_core.Sparse in
      let module Svfg = Fsam_memssa.Svfg in
      let prog = W.generate ~seed ~size:26 () in
      let cold = D.run prog in
      let sweep prog _ svfg ~singleton:_ =
        let w_ptv = Array.init (Prog.n_vars prog) (S.pt_top cold.D.sparse) in
        let w_pto = ref [] in
        S.iter_pto cold.D.sparse (fun ~node ~obj s ->
            match Svfg.node_id svfg (Svfg.node cold.D.svfg node) with
            | Some n -> w_pto := ((n, obj), s) :: !w_pto
            | None -> Alcotest.failf "seed %d: SVFG node %d has no image" seed node);
        Some { S.w_ptv; w_pto = !w_pto; w_units = S.all_units prog svfg }
      in
      let warm = D.run ~warm:{ D.cold_hooks with D.wh_solve = sweep } prog in
      let facts d =
        let l = ref [] in
        S.iter_pto d.D.sparse (fun ~node ~obj s ->
            if not (Iset.is_empty s) then
              l := ((Svfg.node d.D.svfg node, obj), Iset.elements s) :: !l);
        List.sort compare !l
      in
      (S.n_growth cold.D.sparse > 0 || S.pts_entries cold.D.sparse = 0)
      && S.n_growth warm.D.sparse = 0
      && List.for_all
           (fun v -> Iset.equal (S.pt_top cold.D.sparse v) (S.pt_top warm.D.sparse v))
           (List.init (Prog.n_vars prog) Fun.id)
      && facts cold = facts warm)

let test_interp_runs () =
  (* smoke: the interpreter makes progress and terminates *)
  let prog = W.generate ~seed:7 ~size:30 () in
  let r = I.run ~seed:1 prog in
  Alcotest.(check bool) "made steps" true (r.I.steps > 0)

let suite =
  [
    Alcotest.test_case "interpreter smoke" `Quick test_interp_runs;
    Alcotest.test_case "fsam sound vs interpreter" `Slow test_fsam_sound;
    Alcotest.test_case "andersen sound vs interpreter" `Slow test_andersen_sound;
    Alcotest.test_case "nonsparse sound vs interpreter" `Slow test_nonsparse_sound;
    Alcotest.test_case "fsam refines andersen" `Slow test_fsam_refines_andersen;
    QCheck_alcotest.to_alcotest prop_warm_solve_sweep;
    Alcotest.test_case "sequential parity sparse=nonsparse" `Slow
      test_sequential_parity_with_nonsparse;
    Alcotest.test_case "ablations are supersets" `Slow test_ablations_are_supersets;
    Alcotest.test_case "fsam refines nonsparse (multithreaded)" `Slow
      test_multithreaded_nonsparse_superset_of_fsam_on_top_level;
    Alcotest.test_case "random MiniC end-to-end sound" `Slow test_minic_end_to_end_sound;
  ]
