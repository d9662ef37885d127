(* The sparse solve must reach one fixpoint whatever order it drains its
   units in, and a warm edit is just another order: a resident generation
   after an edit must equal a cold rebuild of the edited source. These are
   checked on deep-chain synthesized programs, where a store's pointer can
   stay empty for a long stretch of the drain. *)

module D = Fsam_core.Driver
module Sparse = Fsam_core.Sparse
module Svfg = Fsam_memssa.Svfg
module Iset = Fsam_dsa.Iset
module Ast = Fsam_frontend.Ast
module Engine = Fsam_serve.Engine
module Synth = Fsam_workloads.Minic_synth

(* Edit one synthesized function: [`Replace] retargets its first global
   publish [gN = pM] to the module heap handle (every pre-phase reuse guard
   holds); [`Append] adds [g<m>_0 = bh] at its end (statement counts drift).
   [None] when the function has no publish to retarget. *)
let edit_synth ~kind ~fn source =
  let ast = Fsam_frontend.Parser.parse_string source in
  let found = ref false in
  let retarget = function
    | Ast.Sassign (Ast.Eid g, Ast.Eid p)
      when (not !found) && String.starts_with ~prefix:"g" g && String.starts_with ~prefix:"p" p
      ->
      found := true;
      Ast.Sassign (Ast.Eid g, Ast.Eid "bh")
    | s -> s
  in
  let module_global () =
    (* fn is "f<m>_<d>" *)
    let m = List.hd (String.split_on_char '_' (String.sub fn 1 (String.length fn - 1))) in
    Printf.sprintf "g%s_0" m
  in
  let tweak (f : Ast.fundef) =
    match kind with
    | `Replace -> { f with Ast.body = List.map retarget f.Ast.body }
    | `Append ->
      found := true;
      { f with Ast.body = f.Ast.body @ [ Ast.Sassign (Ast.Eid (module_global ()), Ast.Eid "bh") ] }
  in
  let ast' =
    List.map (function Ast.Dfun f when f.Ast.fname = fn -> Ast.Dfun (tweak f) | d -> d) ast
  in
  if !found then Some (Fsam_frontend.Pretty.to_string ast') else None

let cold_of source = D.run (Fsam_frontend.Lower.compile_string source)

(* Load [params], apply the edit, and compare the resident generation with
   a cold run of the edited source. *)
let warm_equals_cold params ~kind ~fn =
  let source = Synth.generate params in
  match edit_synth ~kind ~fn source with
  | None -> true
  | Some edited -> (
    let eng = Engine.create () in
    (match Engine.load eng source with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "load failed: %s" e);
    match Engine.edit_source eng edited with
    | Error e -> Alcotest.failf "edit %s failed: %s" fn e
    | Ok _ -> Engine.same_results (Engine.driver eng) (cold_of edited))

(* The smallest program on which a warm edit used to diverge from the cold
   rebuild: six top-level sets and 77 memory facts smaller warm. *)
let test_deep_chain_edit () =
  let params = { Synth.large with Synth.modules = 4; chain_depth = 10; stmts_per_fn = 40 } in
  let source = Synth.generate params in
  let edited = Option.get (edit_synth ~kind:`Replace ~fn:"f1_1" source) in
  let eng = Engine.create ~differential:true () in
  (match Engine.load eng source with Ok _ -> () | Error e -> Alcotest.failf "load: %s" e);
  match Engine.edit_source eng edited with
  | Error e -> Alcotest.failf "edit failed: %s" e
  | Ok info ->
    Alcotest.(check bool) "edit ran incrementally" true (info.Engine.e_mode = `Incremental);
    Alcotest.(check (option bool)) "identical to cold" (Some true) info.Engine.e_identical

(* A warm Andersen run pre-merges the collapsed classes it keeps before it
   re-registers the program's constraints; a load off a merged pointer must
   still fire. On this program the edit left [deref#1425 = *p2#1412] in
   [f1_8] with an empty points-to set. *)
let test_warm_andersen_merged_class () =
  let params =
    { Synth.quick with Synth.seed = 901; modules = 2; chain_depth = 9; stmts_per_fn = 24 }
  in
  let source = Synth.generate params in
  let edited = Option.get (edit_synth ~kind:`Replace ~fn:"f1_0" source) in
  let eng = Engine.create () in
  (match Engine.load eng source with Ok _ -> () | Error e -> Alcotest.failf "load: %s" e);
  (match Engine.edit_source eng edited with
  | Ok info ->
    Alcotest.(check bool) "Andersen ran warm" true
      (match info.Engine.e_phases with Some p -> p.Engine.ph_andersen_warm | None -> false)
  | Error e -> Alcotest.failf "edit failed: %s" e);
  let warm = (Engine.driver eng).D.ast and cold = (cold_of edited).D.ast in
  let module A = Fsam_andersen.Solver in
  let differing = ref 0 in
  for v = 0 to Fsam_ir.Prog.n_vars (Engine.driver eng).D.prog - 1 do
    if not (Iset.equal (A.pt_var warm v) (A.pt_var cold v)) then incr differing
  done;
  Alcotest.(check int) "variables whose Andersen set differs" 0 !differing

(* Re-solve a cold run's program with the same pre-phase results but the
   worklist seeded in another order; every top-level set and memory fact
   must match the default order's. *)
let facts_of sp =
  let l = ref [] in
  Sparse.iter_pto sp (fun ~node ~obj s ->
      if not (Iset.is_empty s) then l := ((node, obj), Iset.elements s) :: !l);
  List.sort compare !l

let test_order_independent () =
  let params = { Synth.large with Synth.modules = 2; chain_depth = 4; stmts_per_fn = 40 } in
  let d = cold_of (Synth.generate params) in
  let prog = d.D.prog in
  let units = Sparse.all_units prog d.D.svfg in
  let solve order =
    Sparse.solve
      ~warm:{ Sparse.w_ptv = [||]; w_pto = []; w_units = order; w_pass = []; w_deps = None }
      prog d.D.ast d.D.svfg ~singleton:d.D.singleton
  in
  let shuffled =
    let a = Array.of_list units in
    let rng = Random.State.make [| 42 |] in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let base_facts = facts_of d.D.sparse in
  List.iter
    (fun (what, order) ->
      let sp = solve order in
      let differing = ref 0 in
      for v = 0 to Fsam_ir.Prog.n_vars prog - 1 do
        if not (Iset.equal (Sparse.pt_top sp v) (Sparse.pt_top d.D.sparse v)) then
          incr differing
      done;
      Alcotest.(check int) (what ^ ": top-level sets differing") 0 !differing;
      Alcotest.(check bool) (what ^ ": memory facts equal") true (facts_of sp = base_facts))
    [ ("reverse", List.rev units); ("shuffled", shuffled) ]

(* Small synthesized programs up to depth 12, a random function, a replace
   or append edit: the warm generation equals a cold rebuild. *)
let prop_warm_edit_is_cold =
  let gen =
    QCheck.Gen.(
      map
        (fun (((seed, modules), (depth, stmts)), (pick, append)) ->
          let params =
            { Synth.quick with Synth.seed; modules; chain_depth = depth; stmts_per_fn = stmts }
          in
          let fn = Printf.sprintf "f%d_%d" (pick mod modules) (pick / modules mod depth) in
          (params, fn, if append then `Append else `Replace))
        (pair
           (pair (pair (1 -- 1000) (1 -- 3)) (pair (1 -- 12) (16 -- 40)))
           (pair (0 -- 1000) bool)))
  in
  let print (p, fn, kind) =
    Printf.sprintf "seed %d modules %d depth %d stmts %d, %s %s" p.Synth.seed p.Synth.modules
      p.Synth.chain_depth p.Synth.stmts_per_fn
      (match kind with `Append -> "append to" | `Replace -> "replace in")
      fn
  in
  QCheck.Test.make ~count:25 ~name:"warm edit equals cold rebuild (Minic_synth)"
    (QCheck.make ~print gen) (fun (params, fn, kind) -> warm_equals_cold params ~kind ~fn)

let suite =
  [
    Alcotest.test_case "solve order-independent" `Quick test_order_independent;
    Alcotest.test_case "deep-chain edit equals cold" `Quick test_deep_chain_edit;
    Alcotest.test_case "warm Andersen on merged classes" `Quick test_warm_andersen_merged_class;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 16 |]) prop_warm_edit_is_cold;
  ]
