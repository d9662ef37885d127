(* Additional coverage: NonSparse internals, sparse solver queries, the
   interpreter's determinism, context-depth limiting, and measurement. *)

open Fsam_ir
module B = Builder
module D = Fsam_core.Driver
module NS = Fsam_core.Nonsparse
module A = Fsam_andersen.Solver
module Mta = Fsam_mta

let build_seq () =
  (* p = &x; *p = a(oa); *p = bb(ob); c = *p *)
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let x = B.stack_obj b ~owner:main "x" in
  let oa = B.stack_obj b ~owner:main "oa" and ob = B.stack_obj b ~owner:main "ob" in
  let p = B.fresh_var b "p"
  and a = B.fresh_var b "a"
  and bb = B.fresh_var b "bb"
  and c = B.fresh_var b "c" in
  B.define b main (fun fb ->
      B.addr_of fb p x;
      B.addr_of fb a oa;
      B.addr_of fb bb ob;
      B.store fb p a;
      B.store fb p bb;
      B.load fb c p);
  (B.finish b, x, oa, ob, c)

let test_nonsparse_strong_update () =
  let prog, _x, _oa, ob, c = build_seq () in
  match D.run_nonsparse prog with
  | NS.Done ns, _ ->
    Alcotest.(check bool) "nonsparse kills too" true
      (Fsam_dsa.Iset.equal (NS.pt_top ns c) (Fsam_dsa.Iset.singleton ob))
  | NS.Timeout _, _ -> Alcotest.fail "timeout"

let test_nonsparse_per_point_graphs () =
  let prog, x, oa, ob, _c = build_seq () in
  let ast = A.run prog in
  let icfg = Mta.Icfg.build prog ast in
  let tm = Mta.Threads.build prog ast icfg in
  let pcg = Mta.Pcg.compute tm icfg in
  let singleton = Fsam_core.Singletons.compute prog tm icfg in
  match NS.solve prog ast icfg pcg ~singleton with
  | NS.Done ns ->
    (* before the second store (stmt 4), x holds oa; before the load
       (stmt 5), x holds ob only (strong update) *)
    let main = Prog.main_fid prog in
    let at i = NS.pt_obj_at ns (Prog.gid prog ~fid:main ~idx:i) x in
    Alcotest.(check bool) "x = {oa} before second store" true
      (Fsam_dsa.Iset.equal (at 4) (Fsam_dsa.Iset.singleton oa));
    Alcotest.(check bool) "x = {ob} before load" true
      (Fsam_dsa.Iset.equal (at 5) (Fsam_dsa.Iset.singleton ob))
  | NS.Timeout _ -> Alcotest.fail "timeout"

let test_nonsparse_tiny_budget_times_out () =
  (* a big enough program with a ~zero budget must report Timeout *)
  let spec = Option.get (Fsam_workloads.Suite.find "radiosity") in
  let prog = spec.Fsam_workloads.Suite.build 500 in
  let config = { D.default_config with nonsparse_budget = 0.000001 } in
  match D.run_nonsparse ~config prog with
  | NS.Timeout _, _ -> ()
  | NS.Done _, _ -> Alcotest.fail "expected OOT with zero budget"

let test_sparse_pt_at_store () =
  let prog, x, _oa, ob, _c = build_seq () in
  let d = D.run prog in
  let main = Prog.main_fid prog in
  (* the second store's out-state for x is exactly {ob} *)
  let g = Prog.gid prog ~fid:main ~idx:4 in
  Alcotest.(check bool) "pt_at_store second" true
    (Fsam_dsa.Iset.equal
       (Fsam_core.Sparse.pt_at_store d.D.sparse g x)
       (Fsam_dsa.Iset.singleton ob))

let test_interp_deterministic () =
  let prog = Fsam_workloads.Rand_prog.generate ~seed:3 ~size:30 () in
  let r1 = Fsam_interp.Interp.run ~seed:42 prog in
  let r2 = Fsam_interp.Interp.run ~seed:42 prog in
  Alcotest.(check int) "same steps" r1.Fsam_interp.Interp.steps r2.Fsam_interp.Interp.steps;
  Alcotest.(check int) "same observations"
    (List.length r1.Fsam_interp.Interp.observations)
    (List.length r2.Fsam_interp.Interp.observations)

let test_ctx_depth_limit_terminates () =
  (* a deep non-recursive call chain with a tiny context bound must still
     terminate and produce sound (possibly coarse) results *)
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let depth = 12 in
  let fns = List.init depth (fun i -> B.declare b (Printf.sprintf "f%d" i) ~params:[ "a" ]) in
  List.iteri
    (fun i f ->
      B.define b f (fun fb ->
          if i + 1 < depth then B.call fb (Stmt.Direct (List.nth fns (i + 1))) [ B.param b f 0 ]
          else B.store fb (B.param b f 0) (B.param b f 0)))
    fns;
  let x = B.stack_obj b ~owner:main "x" in
  let p = B.fresh_var b "p" and c = B.fresh_var b "c" in
  B.define b main (fun fb ->
      B.addr_of fb p x;
      B.call fb (Stmt.Direct (List.hd fns)) [ p ];
      B.load fb c p);
  let prog = B.finish b in
  let d = D.run ~config:{ D.default_config with max_ctx_depth = 3 } prog in
  Alcotest.(check (list string)) "deep chain effect visible" [ "x" ] (D.pt_names d c)

let test_mhp_stats () =
  let prog = Fsam_workloads.Rand_prog.generate ~seed:5 ~size:20 () in
  let ast = A.run prog in
  let icfg = Mta.Icfg.build prog ast in
  let tm = Mta.Threads.build prog ast icfg in
  let mhp = Mta.Mhp.compute tm in
  Alcotest.(check bool) "iterations positive" true (Mta.Mhp.n_iterations mhp > 0);
  Alcotest.(check bool) "facts recorded" true (Mta.Mhp.total_fact_size mhp > 0)

let test_measure () =
  let m = Fsam_core.Measure.run (fun () -> Array.make 100_000 0) in
  Alcotest.(check bool) "wall time non-negative" true
    (m.Fsam_core.Measure.wall_seconds >= 0.);
  Alcotest.(check bool) "cpu time non-negative" true
    (m.Fsam_core.Measure.cpu_seconds >= 0.);
  Alcotest.(check bool) "allocation observed" true (m.Fsam_core.Measure.live_mb > 0.2);
  Alcotest.(check int) "value returned" 100_000 (Array.length m.Fsam_core.Measure.value)

let test_store_store_race () =
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let w = B.declare b "w" ~params:[ "p"; "q" ] in
  B.define b w (fun fb -> B.store fb (B.param b w 0) (B.param b w 1));
  let x = B.stack_obj b ~owner:main "x" and y = B.stack_obj b ~owner:main "y" in
  let p = B.fresh_var b "p" and q = B.fresh_var b "q" in
  B.define b main (fun fb ->
      B.addr_of fb p x;
      B.addr_of fb q y;
      B.fork fb (Stmt.Direct w) [ p; q ];
      B.store fb p q);
  let d = D.run (B.finish b) in
  let races = Fsam_core.Races.detect d in
  Alcotest.(check bool) "write-write race found" true
    (List.exists (fun r -> r.Fsam_core.Races.both_writes) races)

let test_dot_exports () =
  let prog, _x, _oa, _ob, _c = build_seq () in
  let d = D.run prog in
  let svfg = Fsam_core.Dot.svfg d in
  Alcotest.(check bool) "svfg dot has digraph" true
    (String.length svfg > 20 && String.sub svfg 0 12 = "digraph svfg");
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "svfg mentions a store" true (contains svfg "*p");
  let cg = Fsam_core.Dot.call_graph d in
  Alcotest.(check bool) "callgraph has main" true (contains cg "main");
  let cfg = Fsam_core.Dot.cfg_of d (Prog.main_fid prog) in
  Alcotest.(check bool) "cfg has edges" true (contains cfg "->")

let suite =
  [
    Alcotest.test_case "dot exports" `Quick test_dot_exports;
    Alcotest.test_case "nonsparse strong update" `Quick test_nonsparse_strong_update;
    Alcotest.test_case "nonsparse per-point graphs" `Quick test_nonsparse_per_point_graphs;
    Alcotest.test_case "nonsparse OOT" `Quick test_nonsparse_tiny_budget_times_out;
    Alcotest.test_case "sparse pt_at_store" `Quick test_sparse_pt_at_store;
    Alcotest.test_case "interpreter deterministic" `Quick test_interp_deterministic;
    Alcotest.test_case "context depth limit" `Quick test_ctx_depth_limit_terminates;
    Alcotest.test_case "mhp stats" `Quick test_mhp_stats;
    Alcotest.test_case "measure" `Quick test_measure;
    Alcotest.test_case "store-store race" `Quick test_store_store_race;
  ]
