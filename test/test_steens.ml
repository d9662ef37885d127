(* Steensgaard's unification-based analysis: coarser than (a superset of)
   Andersen's, and still sound against the interpreter. *)

open Fsam_ir
module B = Builder
module S = Oracle.Steens
module A = Fsam_andersen.Solver
module Iset = Fsam_dsa.Iset

let test_basics () =
  (* p = &x; q = p; r = &y : pt(q) ∋ x, and r stays separate *)
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let x = B.stack_obj b ~owner:main "x" and y = B.stack_obj b ~owner:main "y" in
  let p = B.fresh_var b "p" and q = B.fresh_var b "q" and r = B.fresh_var b "r" in
  B.define b main (fun fb ->
      B.addr_of fb p x;
      B.copy fb q p;
      B.addr_of fb r y);
  let st = S.run (B.finish b) in
  Alcotest.(check bool) "q -> x" true (Iset.mem x (S.pt_var st q));
  Alcotest.(check bool) "r -> y" true (Iset.mem y (S.pt_var st r));
  Alcotest.(check bool) "r not -> x" false (Iset.mem x (S.pt_var st r))

let test_unification_merges () =
  (* the classic Steensgaard imprecision: a = &x; b = &y; c = a; c = b makes
     pt(a) and pt(b) merge (Andersen keeps them apart) *)
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let x = B.stack_obj b ~owner:main "x" and y = B.stack_obj b ~owner:main "y" in
  let va = B.fresh_var b "a" and vb = B.fresh_var b "b" and vc = B.fresh_var b "c" in
  B.define b main (fun fb ->
      B.addr_of fb va x;
      B.addr_of fb vb y;
      B.phi fb vc [ va; vb ]);
  let prog = B.finish b in
  let st = S.run prog in
  let ast = A.run prog in
  Alcotest.(check bool) "steens merges a" true
    (Iset.mem y (S.pt_var st va) && Iset.mem x (S.pt_var st va));
  Alcotest.(check bool) "andersen keeps a precise" false (Iset.mem y (A.pt_var ast va))

let test_coarser_than_andersen_random () =
  for seed = 0 to 19 do
    let prog = Fsam_workloads.Rand_prog.generate ~seed ~size:24 () in
    let st = S.run prog in
    let ast = A.run prog in
    for v = 0 to Prog.n_vars prog - 1 do
      if not (Iset.subset (A.pt_var ast v) (S.pt_var st v)) then
        Alcotest.failf "seed %d: andersen ⊄ steensgaard on %s (%s vs %s)" seed
          (Prog.var_name prog v)
          (Format.asprintf "%a" Iset.pp (A.pt_var ast v))
          (Format.asprintf "%a" Iset.pp (S.pt_var st v))
    done
  done

let test_sound_vs_interpreter () =
  for seed = 0 to 19 do
    let prog = Fsam_workloads.Rand_prog.generate ~seed ~size:24 () in
    let st = S.run prog in
    for sched = 0 to 4 do
      let r = Fsam_interp.Interp.run ~seed:sched prog in
      List.iter
        (fun o ->
          if not (Iset.mem o.Fsam_interp.Interp.obs_obj (S.pt_var st o.Fsam_interp.Interp.obs_var))
          then
            Alcotest.failf "seed %d unsound: %s" seed
              (Prog.var_name prog o.Fsam_interp.Interp.obs_var))
        r.Fsam_interp.Interp.observations
    done
  done

let test_fork_handles () =
  let b = B.create () in
  let worker = B.declare b "worker" ~params:[] in
  let main = B.declare b "main" ~params:[] in
  B.define b worker (fun fb -> B.ret fb None);
  let tid = B.stack_obj b ~owner:main "tid" in
  let h = B.fresh_var b "h" in
  B.define b main (fun fb ->
      B.addr_of fb h tid;
      B.fork fb ~handle:h (Stmt.Direct worker) []);
  let prog = B.finish b in
  let st = S.run prog in
  let theta = Prog.thread_obj_of_fork prog 0 in
  Alcotest.(check bool) "handle cell holds the thread object" true
    (Iset.mem theta (S.pt_obj st tid))

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "unification merges" `Quick test_unification_merges;
    Alcotest.test_case "coarser than andersen (random)" `Slow test_coarser_than_andersen_random;
    Alcotest.test_case "sound vs interpreter (random)" `Slow test_sound_vs_interpreter;
    Alcotest.test_case "fork handles" `Quick test_fork_handles;
  ]
