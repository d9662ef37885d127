open Fsam_ir
module B = Builder

(* A small straight-line program:  main { p = &x; q = p; *q = r } *)
let build_simple () =
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let x = B.stack_obj b ~owner:main "x" in
  let p = B.fresh_var b "p" and q = B.fresh_var b "q" and r = B.fresh_var b "r" in
  B.define b main (fun fb ->
      B.addr_of fb p x;
      B.copy fb q p;
      B.store fb q r);
  B.finish b

let test_builder_basic () =
  let p = build_simple () in
  Alcotest.(check int) "one function" 1 (Prog.n_funcs p);
  let main = Prog.func p (Prog.main_fid p) in
  (* 3 stmts + auto-appended return *)
  Alcotest.(check int) "stmt count" 4 (Func.n_stmts main);
  (match Func.stmt main 3 with
  | Stmt.Return None -> ()
  | _ -> Alcotest.fail "expected trailing return");
  Alcotest.(check (list int)) "fallthrough" [ 1 ] main.Func.succ.(0);
  Alcotest.(check (list int)) "exits" [ 3 ] main.Func.exits;
  match Validate.check p with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_builder_control_flow () =
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let x = B.stack_obj b ~owner:main "x" and y = B.stack_obj b ~owner:main "y" in
  let p = B.fresh_var b "p" and q = B.fresh_var b "q" in
  B.define b main (fun fb ->
      B.if_ fb
        ~then_:(fun fb -> B.addr_of fb p x)
        ~else_:(fun fb -> B.addr_of fb q y);
      B.nop fb "after");
  let p = B.finish b in
  Validate.check_exn p;
  let main = Prog.func p (Prog.main_fid p) in
  (* branch has two successors *)
  Alcotest.(check int) "branch out-degree" 2 (List.length main.Func.succ.(0))

let test_builder_loop () =
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let x = B.stack_obj b ~owner:main "x" in
  let p = B.fresh_var b "p" in
  B.define b main (fun fb -> B.while_ fb (fun fb -> B.addr_of fb p x));
  let prog = B.finish b in
  Validate.check_exn ~ssa:false prog;
  let main = Prog.func prog (Prog.main_fid prog) in
  let reach =
    Fsam_graph.Reach.from ~n:(Func.n_stmts main) ~succs:(Array.get main.Func.succ) 1
  in
  (* the loop body can reach the loop head again *)
  Alcotest.(check bool) "back edge" true (Fsam_dsa.Bitvec.get reach 0)

let test_fork_sites () =
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let worker = B.declare b "worker" ~params:[] in
  B.define b worker (fun fb -> B.ret fb None);
  let h = B.fresh_var b "h" and tid = B.stack_obj b ~owner:main "tid" in
  B.define b main (fun fb ->
      B.addr_of fb h tid;
      B.fork fb ~handle:h (Stmt.Direct worker) [];
      B.join fb h);
  let p = B.finish b in
  Validate.check_exn p;
  Alcotest.(check int) "one fork" 1 (Prog.n_forks p);
  let fid, idx = Prog.fork_site p 0 in
  Alcotest.(check int) "fork in main" (Prog.main_fid p) fid;
  Alcotest.(check int) "fork at stmt 1" 1 idx;
  let tobj = Prog.thread_obj_of_fork p 0 in
  Alcotest.(check bool) "thread object kind" true (Memobj.is_thread (Prog.obj p tobj));
  Alcotest.(check (option int)) "reverse lookup" (Some 0) (Prog.fork_of_thread_obj p tobj)

let test_field_objects () =
  let p = build_simple () in
  let n0 = Prog.n_objs p in
  let x = 0 in
  let f1 = Prog.field_obj p ~base:x ~field:"f" in
  let f1' = Prog.field_obj p ~base:x ~field:"f" in
  let f2 = Prog.field_obj p ~base:x ~field:"g" in
  Alcotest.(check int) "field obj memoised" f1 f1';
  Alcotest.(check bool) "distinct fields distinct" true (f1 <> f2);
  Alcotest.(check int) "table grew by 2" (n0 + 2) (Prog.n_objs p);
  (* fields of fields flatten to the root *)
  let nested = Prog.field_obj p ~base:f1 ~field:"g" in
  Alcotest.(check int) "nested flattens" f2 nested;
  Alcotest.(check bool) "fields_of" true
    (List.sort compare (Prog.fields_of p x) = List.sort compare [ f1; f2 ])

let test_validate_catches_ssa_violation () =
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let x = B.stack_obj b ~owner:main "x" and y = B.stack_obj b ~owner:main "y" in
  let p = B.fresh_var b "p" in
  B.define b main (fun fb ->
      B.addr_of fb p x;
      B.addr_of fb p y);
  let prog = B.finish b in
  (match Validate.check prog with
  | Ok () -> Alcotest.fail "expected SSA violation"
  | Error _ -> ());
  match Validate.check ~ssa:false prog with
  | Ok () -> ()
  | Error es -> Alcotest.fail ("non-ssa check should pass: " ^ String.concat ";" es)

let test_gid_roundtrip () =
  let b = B.create () in
  let foo = B.declare b "foo" ~params:[] in
  let main = B.declare b "main" ~params:[] in
  B.define b foo (fun fb ->
      B.nop fb "a";
      B.nop fb "b");
  B.define b main (fun fb -> B.nop fb "c");
  let p = B.finish b in
  let total = Prog.n_stmts p in
  Alcotest.(check int) "total stmts" 5 total;
  (* foo: a b ret; main: c ret *)
  for g = 0 to total - 1 do
    let fid, idx = Prog.of_gid p g in
    Alcotest.(check int) "gid roundtrip" g (Prog.gid p ~fid ~idx)
  done;
  Alcotest.(check int) "func_of_gid main" main (Prog.func_of_gid p 4)

(* SSA transform ---------------------------------------------------------- *)

(* [Ssa.transform] gives the same program as the reference transform in
   [test/oracle], down to every version name and CFG edge. *)
let same_prog a b =
  let text p = Format.asprintf "%a" Prog.pp p in
  let names p = List.init (Prog.n_vars p) (Prog.var_name p) in
  let edges p =
    List.init (Prog.n_funcs p) (fun i ->
        let f = Prog.func p i in
        (f.Func.succ, f.Func.pred, f.Func.exits))
  in
  let forks p = List.init (Prog.n_forks p) (Prog.fork_site p) in
  text a = text b && names a = names b && edges a = edges b && forks a = forks b

let ssa_matches_reference raw = same_prog (Ssa.transform raw) (Oracle.Ssa_ref.transform raw)

let test_ssa_diamond () =
  (* p defined in both branches, used after: expect a phi *)
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let x = B.stack_obj b ~owner:main "x" and y = B.stack_obj b ~owner:main "y" in
  let p = B.fresh_var b "p" and q = B.fresh_var b "q" in
  B.define b main (fun fb ->
      B.if_ fb
        ~then_:(fun fb -> B.addr_of fb p x)
        ~else_:(fun fb -> B.addr_of fb p y);
      B.copy fb q p);
  let prog = B.finish b in
  Alcotest.(check bool) "= reference" true (ssa_matches_reference prog);
  let ssa = Ssa.transform prog in
  Validate.check_exn ssa;
  (* exactly one phi must appear *)
  let phis = ref 0 in
  Prog.iter_stmts ssa (fun _ _ s -> match s with Stmt.Phi _ -> incr phis | _ -> ());
  Alcotest.(check int) "one phi" 1 !phis;
  (* the phi must merge two distinct versions *)
  Prog.iter_stmts ssa (fun _ _ s ->
      match s with
      | Stmt.Phi { srcs; _ } -> Alcotest.(check int) "phi arity" 2 (List.length srcs)
      | _ -> ())

let test_ssa_loop () =
  (* p = &x; while (...) { p = &y }; q = p *)
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let x = B.stack_obj b ~owner:main "x" and y = B.stack_obj b ~owner:main "y" in
  let p = B.fresh_var b "p" and q = B.fresh_var b "q" in
  B.define b main (fun fb ->
      B.addr_of fb p x;
      B.while_ fb (fun fb -> B.addr_of fb p y);
      B.copy fb q p);
  let prog = B.finish b in
  Alcotest.(check bool) "= reference" true (ssa_matches_reference prog);
  let ssa = Ssa.transform prog in
  Validate.check_exn ssa;
  let phis = ref 0 in
  Prog.iter_stmts ssa (fun _ _ s -> match s with Stmt.Phi _ -> incr phis | _ -> ());
  Alcotest.(check bool) "at least one phi at loop head" true (!phis >= 1)

let test_ssa_no_spurious_phi () =
  (* straight-line code must stay phi-free *)
  let prog = build_simple () in
  Alcotest.(check bool) "= reference" true (ssa_matches_reference prog);
  let ssa = Ssa.transform prog in
  Validate.check_exn ssa;
  Prog.iter_stmts ssa (fun _ _ s ->
      match s with Stmt.Phi _ -> Alcotest.fail "no phi expected" | _ -> ())

let test_ssa_preserves_fork_table () =
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let worker = B.declare b "worker" ~params:[] in
  B.define b worker (fun fb -> B.ret fb None);
  let h = B.fresh_var b "h" and tid = B.stack_obj b ~owner:main "tid" in
  let p = B.fresh_var b "p" and x = B.stack_obj b ~owner:main "x" in
  B.define b main (fun fb ->
      B.if_ fb
        ~then_:(fun fb -> B.addr_of fb p x)
        ~else_:(fun fb -> B.addr_of fb p x);
      B.addr_of fb h tid;
      B.fork fb ~handle:h (Stmt.Direct worker) [];
      B.join fb h);
  let prog = B.finish b in
  Alcotest.(check bool) "= reference" true (ssa_matches_reference prog);
  let ssa = Ssa.transform prog in
  Validate.check_exn ssa;
  let fid, idx = Prog.fork_site ssa 0 in
  (match Func.stmt (Prog.func ssa fid) idx with
  | Stmt.Fork { fork_id = 0; _ } -> ()
  | _ -> Alcotest.fail "fork site table stale after SSA");
  Alcotest.(check int) "thread obj preserved" (Prog.thread_obj_of_fork prog 0)
    (Prog.thread_obj_of_fork ssa 0)

(* Random pre-SSA Builder programs: a pool of variables assigned many
   times, nested branches and loops, and jumps to labels placed before and
   after them (irreducible flow), so phi placement meets every join. *)
let rand_builder_prog seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let b = B.create () in
  let n_funcs = 1 + int 3 in
  let fids =
    List.init n_funcs (fun i ->
        if i = 0 then B.declare b "main" ~params:[]
        else B.declare b (Printf.sprintf "f%d" i) ~params:[ "a" ])
  in
  List.iter
    (fun fid ->
      let vars =
        Array.append
          (Array.init 4 (fun i -> B.fresh_var b (Printf.sprintf "v%d" i)))
          (Array.of_list (B.params b fid))
      in
      let objs = Array.init 2 (fun i -> B.stack_obj b ~owner:fid (Printf.sprintf "o%d" i)) in
      let pick a = a.(int (Array.length a)) in
      B.define b fid (fun fb ->
          let placed = ref [] and pending = ref [] in
          let rec body depth n =
            for _ = 1 to n do
              match int (if depth >= 3 then 8 else 11) with
              | 0 | 1 -> B.addr_of fb (pick vars) (pick objs)
              | 2 -> B.copy fb (pick vars) (pick vars)
              | 3 -> B.load fb (pick vars) (pick vars)
              | 4 -> B.store fb (pick vars) (pick vars)
              | 5 ->
                let callee = List.nth fids (int n_funcs) in
                let args = List.map (fun _ -> pick vars) (B.params b callee) in
                B.call fb ~ret:(pick vars) (Stmt.Direct callee) args
              | 6 ->
                let l = B.new_label fb in
                B.place fb l;
                placed := l :: !placed
              | 7 -> (
                match !pending with
                | l :: rest when int 2 = 0 ->
                  B.place fb l;
                  pending := rest
                | _ -> (
                  match !placed with
                  | _ :: _ when int 2 = 0 ->
                    B.branch fb (List.nth !placed (int (List.length !placed)))
                  | _ ->
                    let l = B.new_label fb in
                    B.branch fb l;
                    pending := l :: !pending))
              | 8 ->
                B.if_ fb
                  ~then_:(fun _ -> body (depth + 1) (int 4))
                  ~else_:(fun _ -> body (depth + 1) (int 4))
              | _ -> B.while_ fb (fun _ -> body (depth + 1) (int 4))
            done
          in
          body 0 (4 + int 12);
          List.iter (B.place fb) !pending;
          B.ret fb (Some (pick vars))))
    fids;
  B.finish b

let prop_ssa_builder =
  QCheck.Test.make ~count:300 ~name:"ssa = reference on random Builder programs"
    QCheck.(int_bound 1_000_000)
    (fun seed -> ssa_matches_reference (rand_builder_prog seed))

let prop_ssa_minic =
  QCheck.Test.make ~count:60 ~name:"ssa = reference on random MiniC programs"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let src = Fsam_workloads.Rand_minic.generate ~seed ~size:(10 + (seed mod 40)) in
      ssa_matches_reference (Fsam_frontend.Lower.lower_raw (Fsam_frontend.Parser.parse_string src)))

let test_ssa_synth () =
  let module Synth = Fsam_workloads.Minic_synth in
  List.iter
    (fun seed ->
      let src = Synth.generate { Synth.quick with Synth.seed } in
      let raw = Fsam_frontend.Lower.lower_raw (Fsam_frontend.Parser.parse_string src) in
      Alcotest.(check bool) (Printf.sprintf "synth seed %d" seed) true (ssa_matches_reference raw))
    [ 1; 2 ]

(* Out-of-range variable ids land in Validate's side tables; the messages
   and their order are pinned. *)
let test_validate_out_of_range_var () =
  let b = B.create () in
  let main = B.declare b "main" ~params:[] in
  let foo = B.declare b "foo" ~params:[] in
  let x = B.stack_obj b ~owner:main "x" in
  let p = B.fresh_var b "p" and q = B.fresh_var b "q" and r = B.fresh_var b "r" in
  B.define b main (fun fb ->
      B.addr_of fb p x;
      B.copy fb 100 99;
      B.store fb (-1) p;
      B.copy fb q 100);
  B.define b foo (fun fb -> B.copy fb r p);
  let prog = B.finish b in
  let errors ~ssa = match Validate.check ~ssa prog with Ok () -> [] | Error es -> es in
  let range =
    [
      "main: used variable id 99 out of range";
      "main: defined variable id 100 out of range";
      "main: used variable id -1 out of range";
      "main: used variable id 100 out of range";
    ]
  in
  Alcotest.(check (list string)) "non-ssa errors" range (errors ~ssa:false);
  Alcotest.(check (list string))
    "ssa errors"
    (range @ [ "foo: stmt 0 uses variable p belonging to main" ])
    (errors ~ssa:true)

let suite =
  [
    Alcotest.test_case "builder basic" `Quick test_builder_basic;
    Alcotest.test_case "builder if/else" `Quick test_builder_control_flow;
    Alcotest.test_case "builder loop" `Quick test_builder_loop;
    Alcotest.test_case "fork sites" `Quick test_fork_sites;
    Alcotest.test_case "field objects" `Quick test_field_objects;
    Alcotest.test_case "validator catches ssa violation" `Quick test_validate_catches_ssa_violation;
    Alcotest.test_case "gid roundtrip" `Quick test_gid_roundtrip;
    Alcotest.test_case "ssa diamond" `Quick test_ssa_diamond;
    Alcotest.test_case "ssa loop" `Quick test_ssa_loop;
    Alcotest.test_case "ssa no spurious phi" `Quick test_ssa_no_spurious_phi;
    Alcotest.test_case "ssa preserves fork table" `Quick test_ssa_preserves_fork_table;
    Alcotest.test_case "ssa = reference on synth programs" `Quick test_ssa_synth;
    QCheck_alcotest.to_alcotest prop_ssa_builder;
    QCheck_alcotest.to_alcotest prop_ssa_minic;
    Alcotest.test_case "validate out-of-range var ids" `Quick test_validate_out_of_range_var;
  ]
