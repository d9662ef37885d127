(* Differential and invariance tests for the indexed MHP/lock query layer:

   - the summary-indexed [mhp_stmt]/[mhp_pairs_inst] agree with the naive
     instance-product references ([Oracle.Naive]) on random IR and MiniC
     programs;
   - [common_lock] (bitset fast path + memo) agrees with the span-product
     reference, and [commonly_protected] with its emptiness;
   - [mhp_inst] is symmetric (the SVFG's statement-MHP memo relies on the
     canonical [(min, max)] key);
   - the [vf_scale] bench workloads exercise the layer end-to-end. *)

module D = Fsam_core.Driver
module Mhp = Fsam_mta.Mhp
module Locks = Fsam_mta.Locks
module Threads = Fsam_mta.Threads
module Svfg = Fsam_memssa.Svfg
module Iset = Fsam_dsa.Iset
module Naive = Oracle.Naive

let gids_with_insts tm =
  let seen = Hashtbl.create 64 in
  for i = 0 to Threads.n_insts tm - 1 do
    let g = (Threads.inst tm i).Threads.i_gid in
    if not (Hashtbl.mem seen g) then Hashtbl.add seen g ()
  done;
  List.sort compare (Hashtbl.fold (fun g () acc -> g :: acc) seen [])

let sorted_pairs l = List.sort compare l

(* Strided sample of the full query product: every gid appears in some
   sampled pair, the product stays bounded on big programs. *)
let check_queries_agree ~name (d : D.t) =
  let tm = d.D.tm and mhp = d.D.mhp and lk = d.D.locks in
  let gids = Array.of_list (gids_with_insts tm) in
  let n = Array.length gids in
  let step = max 1 (n / 24) in
  let i = ref 0 in
  while !i < n do
    let j = ref 0 in
    while !j < n do
      let g1 = gids.(!i) and g2 = gids.(!j) in
      let idx = Mhp.mhp_stmt mhp g1 g2 and nv = Naive.mhp_stmt mhp g1 g2 in
      if idx <> nv then
        Alcotest.failf "%s: mhp_stmt gids (%d,%d): indexed=%b naive=%b" name g1 g2 idx nv;
      let p_idx = sorted_pairs (Mhp.mhp_pairs_inst mhp g1 g2) in
      let p_nv = sorted_pairs (Naive.mhp_pairs_inst mhp g1 g2) in
      if p_idx <> p_nv then
        Alcotest.failf "%s: mhp_pairs_inst gids (%d,%d): %d indexed vs %d naive pairs" name g1
          g2 (List.length p_idx) (List.length p_nv);
      j := !j + step
    done;
    i := !i + step
  done;
  let ni = Threads.n_insts tm in
  let istep = max 1 (ni / 40) in
  let cache = Locks.make_cache () in
  let a = ref 0 in
  while !a < ni do
    let b = ref 0 in
    while !b < ni do
      let cl = sorted_pairs (Locks.common_lock ~cache lk !a !b) in
      let cln = sorted_pairs (Naive.common_lock lk !a !b) in
      if cl <> cln then Alcotest.failf "%s: common_lock insts (%d,%d) disagrees" name !a !b;
      if Locks.commonly_protected lk !a !b <> (cln <> []) then
        Alcotest.failf "%s: commonly_protected insts (%d,%d) disagrees" name !a !b;
      (* satellite: mhp_inst symmetry backs the canonical (min,max) memo key *)
      if Mhp.mhp_inst mhp !a !b <> Mhp.mhp_inst mhp !b !a then
        Alcotest.failf "%s: mhp_inst not symmetric on (%d,%d)" name !a !b;
      b := !b + istep
    done;
    a := !a + istep
  done

let test_queries_agree_rand_ir () =
  for seed = 0 to 9 do
    let prog = Fsam_workloads.Rand_prog.generate ~seed ~size:26 () in
    check_queries_agree ~name:(Printf.sprintf "rand_ir/seed%d" seed) (D.run prog)
  done

let test_queries_agree_rand_minic () =
  for seed = 0 to 7 do
    let src = Fsam_workloads.Rand_minic.generate ~seed ~size:18 in
    let prog = Fsam_frontend.Lower.compile_string src in
    check_queries_agree ~name:(Printf.sprintf "rand_minic/seed%d" seed) (D.run prog)
  done

let test_queries_agree_vf_workload () =
  let prog = Fsam_workloads.Vf_scale.build ~threads:8 20 in
  let d = D.run prog in
  check_queries_agree ~name:"vf_scale/t8" d;
  Alcotest.(check bool)
    "vf workload has thread-aware edges" true
    (Svfg.n_thread_aware_edges d.D.svfg > 0)

(* -- qcheck properties ---------------------------------------------------- *)

let prop_indexed_agrees_naive =
  QCheck.Test.make ~count:10 ~name:"indexed MHP/lock queries agree with naive (random IR)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let prog = Fsam_workloads.Rand_prog.generate ~seed ~size:20 () in
      check_queries_agree ~name:(Printf.sprintf "qcheck/seed%d" seed) (D.run prog);
      true)

let suite =
  [
    Alcotest.test_case "indexed queries agree (random IR)" `Slow test_queries_agree_rand_ir;
    Alcotest.test_case "indexed queries agree (random MiniC)" `Slow
      test_queries_agree_rand_minic;
    Alcotest.test_case "indexed queries agree (vf workload)" `Quick
      test_queries_agree_vf_workload;
    QCheck_alcotest.to_alcotest prop_indexed_agrees_naive;
  ]
