(* Provenance recorder + explain layer: every recorded derivation chain must
   replay against the final solution (differential check on examples, random
   IR and random MiniC programs), MHP justifications and [THREAD-VF] verdicts
   must agree with the underlying analyses, and recording must not perturb
   any result. *)

module D = Fsam_core.Driver
module E = Fsam_core.Explain
module S = Fsam_core.Sparse
module A = Fsam_andersen.Solver
module Mta = Fsam_mta
module Prog = Fsam_ir.Prog
module Stmt = Fsam_ir.Stmt
module Iset = Fsam_dsa.Iset
module J = Fsam_obs.Json
module W = Fsam_workloads.Rand_prog

let prov_config = { D.default_config with provenance = true }

let compile_file path =
  let ic = open_in_bin path in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Fsam_frontend.Lower.compile_string src

(* resolved from the executable (dune copies the samples next to it), so the
   suite runs from any working directory *)
let minic_dir = Filename.concat (Filename.dirname Sys.executable_name) "../examples/minic/"

(* Every true points-to fact (sparse and Andersen, up to [cap] facts) must
   yield a chain, and every chain must replay. *)
let check_all_chains ?(cap = 4000) name (d : D.t) =
  let prog = d.D.prog in
  let checked = ref 0 in
  for v = 0 to Prog.n_vars prog - 1 do
    Iset.iter
      (fun o ->
        if !checked < cap then begin
          incr checked;
          (match E.why_pt d v o with
          | None -> Alcotest.failf "%s: no sparse chain for pt(%d) ∋ %d" name v o
          | Some chain ->
            if chain = [] then Alcotest.failf "%s: empty chain for (%d, %d)" name v o;
            if not (E.replay d chain) then
              Alcotest.failf "%s: sparse chain for (%d, %d) fails replay" name v o);
          match E.why_pt_andersen d v o with
          | None -> Alcotest.failf "%s: no andersen chain for pt(%d) ∋ %d" name v o
          | Some chain ->
            if not (E.replay d chain) then
              Alcotest.failf "%s: andersen chain for (%d, %d) fails replay" name v o
        end)
      (S.pt_top d.D.sparse v)
  done;
  Alcotest.(check bool) (name ^ ": some facts checked") true (!checked > 0)

let test_chains_examples () =
  List.iter
    (fun file -> check_all_chains file (D.run ~config:prov_config (compile_file (minic_dir ^ file))))
    [ "fig1a.c"; "taskqueue.c"; "wordcount.c"; "deadlock.c" ]

let test_chains_workload () =
  let spec = Option.get (Fsam_workloads.Suite.find "word_count") in
  check_all_chains "word_count" (D.run ~config:prov_config (spec.Fsam_workloads.Suite.build 10))

let test_chains_random_ir () =
  for seed = 1 to 8 do
    let prog = W.generate ~seed ~size:24 () in
    check_all_chains (Printf.sprintf "rand_ir seed %d" seed) (D.run ~config:prov_config prog)
  done

let test_chains_random_minic () =
  for seed = 1 to 6 do
    let src = Fsam_workloads.Rand_minic.generate ~seed ~size:18 in
    let prog = Fsam_frontend.Lower.compile_string src in
    check_all_chains (Printf.sprintf "rand_minic seed %d" seed) (D.run ~config:prov_config prog)
  done

(* why_mhp must be Some exactly when the MHP analysis says the two statements
   may happen in parallel, and the fork chains must be rooted at an unforked
   thread and end at the justified one. *)
let test_why_mhp_agrees () =
  for seed = 1 to 6 do
    let prog = W.generate ~seed ~size:24 () in
    let d = D.run ~config:prov_config prog in
    let accesses = ref [] in
    Prog.iter_stmts prog (fun gid _ s ->
        match s with
        | Stmt.Load _ | Stmt.Store _ -> accesses := gid :: !accesses
        | _ -> ());
    let acc = Array.of_list !accesses in
    let n = Array.length acc in
    for i = 0 to min (n - 1) 30 do
      for k = i to min (n - 1) 30 do
        let g1 = acc.(i) and g2 = acc.(k) in
        let expect = Mta.Mhp.mhp_stmt d.D.mhp g1 g2 in
        match E.why_mhp d g1 g2 with
        | None ->
          if expect then Alcotest.failf "seed %d: mhp_stmt %d %d but no justification" seed g1 g2
        | Some j ->
          if not expect then Alcotest.failf "seed %d: justification for non-MHP %d %d" seed g1 g2;
          let t1, t2 = j.E.j_threads in
          let check_chain tid chain =
            (match chain with
            | (root, None) :: _ -> ignore root
            | _ -> Alcotest.failf "seed %d: fork chain does not start at an unforked thread" seed);
            match List.rev chain with
            | (last, _) :: _ ->
              Alcotest.(check int) "chain ends at justified thread" tid last
            | [] -> Alcotest.fail "empty fork chain"
          in
          check_chain t1 (fst j.E.j_chains);
          check_chain t2 (snd j.E.j_chains)
      done
    done
  done

(* [THREAD-VF] verdicts: Skipped_mhp contradicts mhp_stmt; Filtered_lock must
   name a span pair protected by one common runtime lock containing the
   recorded instances; Kept{unprotected} must match commonly_protected on the
   witness instance pair. *)
let test_why_edge_consistent () =
  let progs =
    compile_file (minic_dir ^ "taskqueue.c")
    :: List.map (fun seed -> W.generate ~seed ~size:26 ()) [ 11; 12; 13 ]
  in
  let n_verdicts = ref 0 in
  List.iter
    (fun prog ->
      let d = D.run ~config:prov_config prog in
      let stores = ref [] and accesses = ref [] in
      Prog.iter_stmts prog (fun gid _ s ->
          match s with
          | Stmt.Store { dst; _ } ->
            stores := (gid, A.pt_var d.D.ast dst) :: !stores;
            accesses := (gid, A.pt_var d.D.ast dst) :: !accesses
          | Stmt.Load { src; _ } -> accesses := (gid, A.pt_var d.D.ast src) :: !accesses
          | _ -> ());
      List.iter
        (fun (sg, spts) ->
          List.iter
            (fun (ag, apts) ->
              Iset.iter
                (fun o ->
                  if Iset.mem o apts then
                    match E.why_edge d ~store:sg ~obj:o ~access:ag with
                    | E.Unrecorded -> ()
                    | E.Skipped_mhp ->
                      incr n_verdicts;
                      if Mta.Mhp.mhp_stmt d.D.mhp sg ag then
                        Alcotest.failf "skipped-mhp verdict for MHP pair %d %d" sg ag
                    | E.Kept { unprotected; winsts } -> (
                      incr n_verdicts;
                      if not (Mta.Mhp.mhp_stmt d.D.mhp sg ag) then
                        Alcotest.failf "kept verdict for non-MHP pair %d %d" sg ag;
                      match winsts with
                      | Some (i, j) ->
                        Alcotest.(check bool)
                          "unprotected flag matches lock analysis" unprotected
                          (not (Mta.Locks.commonly_protected d.D.locks i j))
                      | None -> ())
                    | E.Filtered_lock { insts = i, j; spans = sp, sp'; _ } ->
                      incr n_verdicts;
                      Alcotest.(check int)
                        "span pair shares one runtime lock"
                        (Mta.Locks.span_lock d.D.locks sp)
                        (Mta.Locks.span_lock d.D.locks sp');
                      Alcotest.(check bool)
                        "store instance inside its span" true
                        (List.mem sp (Mta.Locks.spans_of_inst d.D.locks i));
                      Alcotest.(check bool)
                        "access instance inside its span" true
                        (List.mem sp' (Mta.Locks.spans_of_inst d.D.locks j)))
                spts)
            !accesses)
        !stores)
    progs;
  Alcotest.(check bool) "some pair verdicts were recorded" true (!n_verdicts > 0)

(* The final recorded strong/weak verdict must match the solver's killing
   behaviour: a strong verdict names an object the store's pointer resolves
   to uniquely. *)
let test_store_verdicts () =
  let prog = compile_file (minic_dir ^ "fig1a.c") in
  let d = D.run ~config:prov_config prog in
  let seen = ref 0 in
  Prog.iter_stmts prog (fun gid _ s ->
      match s with
      | Stmt.Store { dst; _ } -> (
        match E.store_update d gid with
        | None -> ()
        | Some `Weak -> incr seen
        | Some (`Strong killed) ->
          incr seen;
          let pts = S.pt_top d.D.sparse dst in
          Alcotest.(check bool) "strong verdict kills the unique target" true
            (Iset.equal pts (Iset.singleton killed)))
      | _ -> ());
  Alcotest.(check bool) "store verdicts recorded" true (!seen > 0)

(* Recording must not change any result: off and on runs must agree byte
   for byte ([Engine.same_results]). *)
let test_off_on_identity () =
  for seed = 21 to 24 do
    let d_off = D.run (W.generate ~seed ~size:24 ()) in
    let d_on = D.run ~config:prov_config (W.generate ~seed ~size:24 ()) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: off/on results identical" seed)
      true
      (Fsam_serve.Engine.same_results d_off d_on);
    (* without recording, provenance queries decline rather than guess *)
    (match Fsam_core.Races.detect d_off with
    | r :: _ ->
      Alcotest.(check bool) "no witness without provenance" true (E.witness d_off r = None)
    | [] -> ());
    Alcotest.(check bool) "no chain without provenance" true (E.why_pt d_off 0 0 = None)
  done

(* Chains stay within the requested bound. *)
let test_max_depth () =
  let prog = compile_file (minic_dir ^ "fig1a.c") in
  let d = D.run ~config:prov_config prog in
  for v = 0 to Prog.n_vars prog - 1 do
    Iset.iter
      (fun o ->
        match E.why_pt ~max_depth:2 d v o with
        | Some chain -> Alcotest.(check bool) "bounded" true (List.length chain <= 2)
        | None -> ())
      (S.pt_top d.D.sparse v)
  done

let suite =
  [
    Alcotest.test_case "chains replay on example programs" `Quick test_chains_examples;
    Alcotest.test_case "chains replay on word_count" `Quick test_chains_workload;
    Alcotest.test_case "chains replay on random IR" `Quick test_chains_random_ir;
    Alcotest.test_case "chains replay on random MiniC" `Quick test_chains_random_minic;
    Alcotest.test_case "why_mhp agrees with the MHP analysis" `Quick test_why_mhp_agrees;
    Alcotest.test_case "why_edge verdicts are consistent" `Quick test_why_edge_consistent;
    Alcotest.test_case "store strong/weak verdicts" `Quick test_store_verdicts;
    Alcotest.test_case "recording changes no results" `Quick test_off_on_identity;
    Alcotest.test_case "max_depth bounds the chain" `Quick test_max_depth;
  ]
