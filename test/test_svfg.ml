(* Structural tests of the sparse value-flow graph — in particular the
   thread-oblivious edges of paper Figure 6 and the context machinery. *)

open Fsam_ir
module B = Builder
module A = Fsam_andersen.Solver
module Mta = Fsam_mta
module Svfg = Fsam_memssa.Svfg

let build_svfg ?config prog =
  let ast = A.run prog in
  let mr = Fsam_andersen.Modref.compute prog ast in
  let icfg = Mta.Icfg.build prog ast in
  let tm = Mta.Threads.build prog ast icfg in
  let mhp = Mta.Mhp.compute tm in
  let lk = Mta.Locks.compute prog ast tm in
  let pcg = Mta.Pcg.compute tm icfg in
  (Svfg.build ?config prog ast mr tm mhp lk pcg, ast)

(* Figure 6:
   main: s1: *p = a1; fork(t, foo); s2: *p = a2; join(t); s3: c = *p
   foo:  s4: *q = a3; s5: d = *q                      (p, q both point to o) *)
type fig6 = {
  prog : Prog.t;
  o : int;
  s1 : int;
  s2 : int;
  s3 : int;
  s4 : int;
  s5 : int;
  foo : int;
  c : Stmt.var;
}

let build_fig6 () =
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let foo = B.declare b "foo" ~params:[ "q"; "a3" ] in
  let o = B.global_obj b "o" in
  let o1 = B.global_obj b "o1"
  and o2 = B.global_obj b "o2"
  and o3 = B.global_obj b "o3" in
  let q = B.param b foo 0 and a3 = B.param b foo 1 in
  let d = B.fresh_var b "d" in
  B.define b foo (fun fb ->
      B.store fb q a3;
      B.load fb d q);
  let tid = B.stack_obj b ~owner:main "tid" in
  let p = B.fresh_var b "p"
  and a1 = B.fresh_var b "a1"
  and a2 = B.fresh_var b "a2"
  and va3 = B.fresh_var b "va3"
  and h = B.fresh_var b "h"
  and c = B.fresh_var b "c" in
  B.define b main (fun fb ->
      B.addr_of fb p o;
      B.addr_of fb a1 o1;
      B.addr_of fb a2 o2;
      B.addr_of fb va3 o3;
      B.addr_of fb h tid;
      B.store fb p a1;
      (* s1 *)
      B.fork fb ~handle:h (Stmt.Direct foo) [ p; va3 ];
      B.store fb p a2;
      (* s2 *)
      B.join fb h;
      B.load fb c p (* s3 *));
  let prog = B.finish b in
  let gid_of_stmt fid pred =
    let r = ref (-1) in
    Func.iter_stmts (Prog.func prog fid) (fun i s ->
        if pred s && !r < 0 then r := Prog.gid prog ~fid ~idx:i);
    !r
  in
  let nth_store fid n =
    let cnt = ref 0 and r = ref (-1) in
    Func.iter_stmts (Prog.func prog fid) (fun i s ->
        match s with
        | Stmt.Store _ ->
          if !cnt = n then r := Prog.gid prog ~fid ~idx:i;
          incr cnt
        | _ -> ());
    !r
  in
  {
    prog;
    o;
    s1 = nth_store main 0;
    s2 = nth_store main 1;
    s3 = gid_of_stmt main (function Stmt.Load _ -> true | _ -> false);
    s4 = nth_store foo 0;
    s5 = gid_of_stmt foo (function Stmt.Load _ -> true | _ -> false);
    foo;
    c;
  }

let has_o_edge svfg o src dst =
  match (Svfg.node_id svfg (Svfg.Stmt_node src), Svfg.node_id svfg (Svfg.Stmt_node dst)) with
  | Some a, Some b -> List.exists (fun (o', p) -> o' = o && p = a) (Svfg.o_preds svfg b)
  | _ -> false

(* transitive reachability over o-labelled edges *)
let o_reaches svfg o src dst =
  match (Svfg.node_id svfg (Svfg.Stmt_node src), Svfg.node_id svfg (Svfg.Stmt_node dst)) with
  | Some a, Some b ->
    let seen = Hashtbl.create 16 in
    let rec go n =
      n = b
      || (not (Hashtbl.mem seen n))
         && begin
              Hashtbl.replace seen n ();
              List.exists (fun (o', m) -> o' = o && go m) (Svfg.o_succs svfg n)
            end
    in
    go a
  | _ -> false

let test_fig6_edges () =
  let f6 = build_fig6 () in
  let svfg, _ast = build_svfg f6.prog in
  (* fork-bypass (Figure 6(c)): s1 ↪ s2 directly, around foo *)
  Alcotest.(check bool) "s1 -> s2 fork bypass" true (has_o_edge svfg f6.o f6.s1 f6.s2);
  (* sequential chain past the join (6(b)): s2 ↪ s3 *)
  Alcotest.(check bool) "s2 -> s3 sequential" true (has_o_edge svfg f6.o f6.s2 f6.s3);
  (* join edge (6(d)): s4's def reaches s3 (through foo's formal-out) *)
  Alcotest.(check bool) "s4 reaches s3 (join edge)" true (o_reaches svfg f6.o f6.s4 f6.s3);
  (* the value entering foo comes from s1 (through its formal-in) *)
  Alcotest.(check bool) "s1 reaches s4" true (o_reaches svfg f6.o f6.s1 f6.s4);
  (* thread-aware (example 2): s2 ↪ s4 and s2 ↪ s5 *)
  Alcotest.(check bool) "s2 -> s4 thread-aware" true (has_o_edge svfg f6.o f6.s2 f6.s4);
  Alcotest.(check bool) "s2 -> s5 thread-aware" true (has_o_edge svfg f6.o f6.s2 f6.s5);
  (* but NOT s1 -> s3 directly: the bypass dies at the join *)
  Alcotest.(check bool) "no direct s1 -> s3" false (has_o_edge svfg f6.o f6.s1 f6.s3)

let test_fig6_pt_results () =
  let f6 = build_fig6 () in
  let d = Fsam_core.Driver.run f6.prog in
  (* c can see s2's value (o2), s4's value (o3), and — since s2 races with
     s4, both weak — s1's value (o1) survives too *)
  let names = Fsam_core.Driver.pt_names d f6.c in
  Alcotest.(check bool) "o2 visible" true (List.mem "o2" names);
  Alcotest.(check bool) "o3 visible (thread effect at join)" true (List.mem "o3" names)

let test_no_value_flow_superset () =
  let f6 = build_fig6 () in
  let svfg_full, _ = build_svfg f6.prog in
  let svfg_nvf, _ = build_svfg ~config:{ Svfg.default_config with use_value_flow = false } f6.prog in
  Alcotest.(check bool) "no-value-flow has at least as many thread edges" true
    (Svfg.n_thread_aware_edges svfg_nvf >= Svfg.n_thread_aware_edges svfg_full)

(* -- contexts -------------------------------------------------------------- *)

let test_ctx_store () =
  let s = Mta.Ctx.create_store () in
  let c1 = Mta.Ctx.push s Mta.Ctx.empty 5 in
  let c2 = Mta.Ctx.push s c1 9 in
  let c2' = Mta.Ctx.push s (Mta.Ctx.push s Mta.Ctx.empty 5) 9 in
  Alcotest.(check bool) "hash-consed" true (c2 = c2');
  Alcotest.(check (list int)) "to_list" [ 5; 9 ] (Mta.Ctx.to_list s c2);
  Alcotest.(check (option int)) "peek" (Some 9) (Mta.Ctx.peek s c2);
  Alcotest.(check (option int)) "pop" (Some c1) (Mta.Ctx.pop s c2);
  Alcotest.(check int) "depth" 2 (Mta.Ctx.depth s c2);
  Alcotest.(check (option int)) "pop empty" None (Mta.Ctx.pop s Mta.Ctx.empty)

(* -- icfg ------------------------------------------------------------------- *)

let test_icfg_call_edges () =
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let callee = B.declare b "callee" ~params:[] in
  B.define b callee (fun fb -> B.nop fb "body");
  B.define b main (fun fb ->
      B.call fb (Stmt.Direct callee) [];
      B.nop fb "after");
  let prog = B.finish b in
  let ast = A.run prog in
  let icfg = Mta.Icfg.build prog ast in
  let call_gid = Prog.gid prog ~fid:main ~idx:0 in
  let callee_entry = Mta.Icfg.entry_gid icfg callee in
  let succs = Mta.Icfg.succs icfg call_gid in
  Alcotest.(check bool) "call edge to callee entry" true
    (List.exists (function Mta.Icfg.Call _, v -> v = callee_entry | _ -> false) succs);
  Alcotest.(check bool) "no intra fallthrough at resolved call" false
    (List.exists (function Mta.Icfg.Intra, _ -> true | _ -> false) succs);
  (* return edge from callee exit to the statement after the call *)
  let after_gid = Prog.gid prog ~fid:main ~idx:1 in
  let exits = Mta.Icfg.exit_gids icfg callee in
  Alcotest.(check bool) "ret edge" true
    (List.exists
       (fun ex ->
         List.exists
           (function Mta.Icfg.Ret cs, v -> cs = call_gid && v = after_gid | _ -> false)
           (Mta.Icfg.succs icfg ex))
       exits)

let test_icfg_fork_no_call_edge () =
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let w = B.declare b "w" ~params:[] in
  B.define b w (fun fb -> B.nop fb "body");
  B.define b main (fun fb ->
      B.fork fb (Stmt.Direct w) [];
      B.nop fb "after");
  let prog = B.finish b in
  let ast = A.run prog in
  let icfg = Mta.Icfg.build prog ast in
  let fork_gid = Prog.gid prog ~fid:main ~idx:0 in
  let succs = Mta.Icfg.succs icfg fork_gid in
  (* "There are no outgoing [interprocedural] edges for a fork or join site" *)
  Alcotest.(check bool) "fork has only intra successors" true
    (List.for_all (function Mta.Icfg.Intra, _ -> true | _ -> false) succs)

let test_icfg_unresolved_call_falls_through () =
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let fp = B.fresh_var b "fp" in
  B.define b main (fun fb ->
      B.call fb (Stmt.Indirect fp) [];
      B.nop fb "after");
  let prog = B.finish b in
  let ast = A.run prog in
  let icfg = Mta.Icfg.build prog ast in
  let call_gid = Prog.gid prog ~fid:main ~idx:0 in
  Alcotest.(check bool) "unresolved call keeps fallthrough" true
    (List.exists
       (function Mta.Icfg.Intra, _ -> true | _ -> false)
       (Mta.Icfg.succs icfg call_gid))

let suite =
  [
    Alcotest.test_case "figure 6 def-use edges" `Quick test_fig6_edges;
    Alcotest.test_case "figure 6 pt results" `Quick test_fig6_pt_results;
    Alcotest.test_case "no-value-flow superset of edges" `Quick test_no_value_flow_superset;
    Alcotest.test_case "context store" `Quick test_ctx_store;
    Alcotest.test_case "icfg call/ret edges" `Quick test_icfg_call_edges;
    Alcotest.test_case "icfg fork has no call edge" `Quick test_icfg_fork_no_call_edge;
    Alcotest.test_case "icfg unresolved call" `Quick test_icfg_unresolved_call_falls_through;
  ]
