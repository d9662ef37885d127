(* The CFG compaction pass: shrinks the program, preserves analysis results
   and executable semantics. *)

open Fsam_ir
module B = Builder
module D = Fsam_core.Driver
module W = Fsam_workloads.Rand_prog

let test_compacts_structural_nops () =
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let x = B.stack_obj b ~owner:main "x" in
  let p = B.fresh_var b "p" in
  B.define b main (fun fb ->
      B.if_ fb
        ~then_:(fun fb -> B.addr_of fb p x)
        ~else_:(fun fb -> B.nop fb "else");
      B.nop fb "tail");
  let prog = B.finish b in
  let c = Simplify.compact prog in
  Validate.check_exn c;
  Alcotest.(check bool) "smaller" true (Prog.n_stmts c < Prog.n_stmts prog);
  (* the branch point survives (two successors), gotos are gone *)
  let gotos = ref 0 and branches = ref 0 in
  Prog.iter_stmts c (fun _ _ s ->
      match s with
      | Stmt.Nop "goto" -> incr gotos
      | Stmt.Nop "branch" -> incr branches
      | _ -> ());
  Alcotest.(check int) "no gotos left" 0 !gotos;
  Alcotest.(check bool) "branch point kept" true (!branches >= 1)

let test_preserves_results () =
  (* compaction must not change any surviving variable's points-to set *)
  for seed = 0 to 14 do
    let prog = W.generate ~seed ~size:24 () in
    let comp = Simplify.compact prog in
    Validate.check_exn comp;
    let d1 = D.run prog in
    let d2 = D.run comp in
    for v = 0 to Prog.n_vars prog - 1 do
      if not (Fsam_dsa.Iset.equal (D.pt d1 v) (D.pt d2 v)) then
        Alcotest.failf "seed %d: compaction changed pt(%s)" seed (Prog.var_name prog v)
    done
  done

let test_preserves_semantics () =
  (* the interpreter observes the same variable facts on the compacted
     program (schedules differ, so compare the deterministic single-thread
     observations via the exhaustive explorer on tiny programs) *)
  for seed = 0 to 7 do
    let prog = W.generate ~forks:false ~seed ~size:10 () in
    let comp = Simplify.compact prog in
    let facts p =
      let e = Fsam_interp.Explore.explore ~max_runs:2000 p in
      List.sort compare e.Fsam_interp.Explore.var_facts
    in
    if facts prog <> facts comp then Alcotest.failf "seed %d: semantics changed" seed
  done

let test_loop_structure_survives () =
  (* a while loop still loops after compaction (back edge preserved) *)
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let x = B.stack_obj b ~owner:main "x" in
  let p = B.fresh_var b "p" in
  B.define b main (fun fb -> B.while_ fb (fun fb -> B.addr_of fb p x));
  let prog = Simplify.compact (B.finish b) in
  Validate.check_exn prog;
  let f = Prog.func prog (Prog.main_fid prog) in
  (* some statement lies on a cycle: one of its successors reaches it back
     (reachability is reflexive, so [i] reaching itself proves nothing) *)
  let succs = Array.get f.Func.succ in
  let on_cycle i =
    List.exists
      (fun j -> Fsam_dsa.Bitvec.get (Fsam_graph.Reach.from ~n:(Func.n_stmts f) ~succs j) i)
      (succs i)
  in
  let cyclic = ref false in
  Func.iter_stmts f (fun i _ -> if on_cycle i then cyclic := true);
  Alcotest.(check bool) "loop preserved" true !cyclic

let test_fork_table_remapped () =
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let w = B.declare b "w" ~params:[] in
  B.define b w (fun fb -> B.ret fb None);
  B.define b main (fun fb ->
      B.nop fb "pad";
      B.fork fb (Stmt.Direct w) []);
  let prog = Simplify.compact (B.finish b) in
  let fid, idx = Prog.fork_site prog 0 in
  match Func.stmt (Prog.func prog fid) idx with
  | Stmt.Fork { fork_id = 0; _ } -> ()
  | _ -> Alcotest.fail "fork site table stale after compaction"

let suite =
  [
    Alcotest.test_case "compacts structural nops" `Quick test_compacts_structural_nops;
    Alcotest.test_case "preserves analysis results" `Slow test_preserves_results;
    Alcotest.test_case "preserves semantics" `Slow test_preserves_semantics;
    Alcotest.test_case "loop structure survives" `Quick test_loop_structure_survives;
    Alcotest.test_case "fork table remapped" `Quick test_fork_table_remapped;
  ]
