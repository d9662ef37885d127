(* Sanity checks on the benchmark workload generators: every program builds,
   validates, analyzes, and exhibits the concurrency features its paper
   counterpart is included for. Small scales keep this fast. *)

open Fsam_ir
module D = Fsam_core.Driver
module W = Fsam_workloads.Suite

let small (s : W.spec) = s.build (max 10 (s.scale / 10))

let test_all_valid () =
  List.iter
    (fun (s : W.spec) ->
      let prog = small s in
      match Validate.check prog with
      | Ok () -> ()
      | Error es -> Alcotest.failf "%s: %s" s.name (String.concat "; " es))
    W.all

let test_all_analyze () =
  List.iter
    (fun (s : W.spec) ->
      let prog = small s in
      let d = D.run prog in
      Alcotest.(check bool)
        (s.name ^ " produced facts")
        true
        (Fsam_core.Sparse.pts_entries d.D.sparse > 0))
    W.all

let test_ten_programs () = Alcotest.(check int) "ten benchmarks" 10 (List.length W.all)

let thread_count prog =
  let ast = Fsam_andersen.Solver.run prog in
  let icfg = Fsam_mta.Icfg.build prog ast in
  let tm = Fsam_mta.Threads.build prog ast icfg in
  tm

let test_word_count_symmetric_join () =
  (* the figure-11 property: slave statements do not interleave with the
     master's post-processing after the join loop *)
  let s = Option.get (W.find "word_count") in
  let prog = small s in
  let tm = thread_count prog in
  let multi = ref 0 in
  for t = 0 to Fsam_mta.Threads.n_threads tm - 1 do
    if Fsam_mta.Threads.is_multi tm t then incr multi
  done;
  Alcotest.(check bool) "has multi-forked slaves" true (!multi >= 1);
  let kills = ref 0 in
  for i = 0 to Fsam_mta.Threads.n_insts tm - 1 do
    if Fsam_mta.Threads.join_kills tm i <> [] then incr kills
  done;
  Alcotest.(check bool) "symmetric joins handled" true (!kills >= 1)

let test_httpd_detached () =
  (* handlers are spawned in a loop and never joined: they must stay alive *)
  let s = Option.get (W.find "httpd_server") in
  let prog = small s in
  let tm = thread_count prog in
  let mhp = Fsam_mta.Mhp.compute tm in
  (* some statement pair across threads is MHP *)
  let found = ref false in
  Prog.iter_stmts prog (fun g _ st ->
      match st with
      | Stmt.Store _ ->
        Prog.iter_stmts prog (fun g' _ st' ->
            match st' with
            | Stmt.Load _ when Fsam_mta.Mhp.mhp_stmt mhp g g' -> found := true
            | _ -> ())
      | _ -> ());
  Alcotest.(check bool) "handler interference present" true !found

let test_radiosity_locks () =
  let s = Option.get (W.find "radiosity") in
  let prog = small s in
  let ast = Fsam_andersen.Solver.run prog in
  let icfg = Fsam_mta.Icfg.build prog ast in
  let tm = Fsam_mta.Threads.build prog ast icfg in
  let lk = Fsam_mta.Locks.compute prog ast tm in
  Alcotest.(check bool) "task-queue spans exist" true (Fsam_mta.Locks.n_spans lk >= 4)

let test_x264_indirect_calls () =
  let s = Option.get (W.find "x264") in
  let prog = small s in
  let ast = Fsam_andersen.Solver.run prog in
  let found = ref false in
  Prog.iter_funcs prog (fun f ->
      Func.iter_stmts f (fun i st ->
          match st with
          | Stmt.Call { target = Stmt.Indirect _; _ } ->
            if List.length (Fsam_andersen.Solver.callees ast ~fid:f.Func.fid ~idx:i) >= 2
            then found := true
          | _ -> ()));
  Alcotest.(check bool) "function-pointer table resolves to many" true !found

let test_workloads_deterministic () =
  let s = Option.get (W.find "ferret") in
  let p1 = small s and p2 = small s in
  Alcotest.(check int) "same statement count" (Prog.n_stmts p1) (Prog.n_stmts p2);
  let d1 = D.run p1 and d2 = D.run p2 in
  Alcotest.(check int) "same fact count"
    (Fsam_core.Sparse.pts_entries d1.D.sparse)
    (Fsam_core.Sparse.pts_entries d2.D.sparse)

(* Minic_synth: the parameterized source-level synthesizer behind the
   bench --size large tier. A scaled-down parameter set keeps these quick. *)
module Synth = Fsam_workloads.Minic_synth

let synth_tiny =
  { Synth.quick with Synth.modules = 3; chain_depth = 3; stmts_per_fn = 16 }

let test_synth_deterministic () =
  let s1 = Synth.generate synth_tiny and s2 = Synth.generate synth_tiny in
  Alcotest.(check bool) "same source text" true (String.equal s1 s2);
  Alcotest.(check bool) "nontrivial program" true (Synth.line_count s1 > 100);
  let other = Synth.generate { synth_tiny with Synth.seed = 2 } in
  Alcotest.(check bool) "seed changes the program" false (String.equal s1 other)

let test_synth_scales_with_params () =
  let bigger = Synth.generate { synth_tiny with Synth.modules = 6 } in
  Alcotest.(check bool) "more modules, more lines" true
    (Synth.line_count bigger > Synth.line_count (Synth.generate synth_tiny))

let test_synth_compiles_and_analyzes () =
  let prog = Fsam_frontend.Lower.compile_string (Synth.generate synth_tiny) in
  (match Validate.check prog with
  | Ok () -> ()
  | Error es -> Alcotest.failf "synth invalid: %s" (String.concat "; " es));
  let d = D.run prog in
  Alcotest.(check bool) "synth forks threads" true
    (Fsam_mta.Threads.n_threads d.D.tm > 1);
  Alcotest.(check bool) "synth has lock spans" true
    (Fsam_mta.Locks.n_spans d.D.locks > 0);
  (* the synthesized races are deterministic: a second full run agrees *)
  let races1 = Fsam_core.Races.detect d in
  let d2 = D.run (Fsam_frontend.Lower.compile_string (Synth.generate synth_tiny)) in
  let races2 = Fsam_core.Races.detect d2 in
  Alcotest.(check bool) "race report stable" true (races1 = races2)

let test_scaling_monotone () =
  let s = Option.get (W.find "kmeans") in
  let small_p = s.build 20 and big_p = s.build 40 in
  Alcotest.(check bool) "bigger scale, bigger program" true
    (Prog.n_stmts big_p > Prog.n_stmts small_p)

let suite =
  [
    Alcotest.test_case "ten programs" `Quick test_ten_programs;
    Alcotest.test_case "all valid" `Quick test_all_valid;
    Alcotest.test_case "all analyzable" `Quick test_all_analyze;
    Alcotest.test_case "word_count symmetric joins" `Quick test_word_count_symmetric_join;
    Alcotest.test_case "httpd detached handlers" `Quick test_httpd_detached;
    Alcotest.test_case "radiosity lock spans" `Quick test_radiosity_locks;
    Alcotest.test_case "x264 indirect calls" `Quick test_x264_indirect_calls;
    Alcotest.test_case "generators deterministic" `Quick test_workloads_deterministic;
    Alcotest.test_case "scaling monotone" `Quick test_scaling_monotone;
    Alcotest.test_case "minic_synth deterministic" `Quick test_synth_deterministic;
    Alcotest.test_case "minic_synth scales with params" `Quick test_synth_scales_with_params;
    Alcotest.test_case "minic_synth compiles and analyzes" `Quick
      test_synth_compiles_and_analyzes;
  ]
