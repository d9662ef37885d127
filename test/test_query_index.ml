(* Differential and invariance tests for the indexed MHP/lock query layer:

   - the summary-indexed [mhp_stmt]/[mhp_pairs_inst] agree with the naive
     instance-product references ([Oracle.Naive]) on random IR and MiniC
     programs;
   - [common_lock] (bitset fast path + memo) agrees with the span-product
     reference, and [commonly_protected] with its emptiness;
   - [mhp_inst] is symmetric (the SVFG's statement-MHP memo relies on the
     canonical [(min, max)] key);
   - the thread-aware SVFG — edge set, [THREAD-VF] edge count, racy-object
     marks — is identical for jobs 1/2/4, under the default config and
     under each paper §4.3 ablation;
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

(* -- jobs-invariance of the thread-aware SVFG ----------------------------- *)

let svfg_digest g prog =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "e=%d t=%d;" (Svfg.n_edges g) (Svfg.n_thread_aware_edges g));
  for v = 0 to Svfg.n_nodes g - 1 do
    List.iter
      (fun (o, s) -> Buffer.add_string buf (Printf.sprintf "%d:%d>%d;" v o s))
      (List.sort compare (Svfg.o_succs g v))
  done;
  for gid = 0 to Fsam_ir.Prog.n_stmts prog - 1 do
    let r = Svfg.racy_objs g gid in
    if not (Iset.is_empty r) then
      Buffer.add_string buf
        (Printf.sprintf "r%d=%s;" gid
           (String.concat "," (List.map string_of_int (Iset.elements r))))
  done;
  Buffer.contents buf

let rebuild_svfg ?config ~jobs (d : D.t) =
  Svfg.build ?config ~jobs d.D.prog d.D.ast d.D.modref d.D.icfg d.D.tm d.D.mhp d.D.locks
    d.D.pcg

let check_svfg_jobs_invariant ~name ?config (d : D.t) =
  let ref_digest = svfg_digest (rebuild_svfg ?config ~jobs:1 d) d.D.prog in
  List.iter
    (fun jobs ->
      let dig = svfg_digest (rebuild_svfg ?config ~jobs d) d.D.prog in
      if dig <> ref_digest then Alcotest.failf "%s: SVFG differs at jobs=%d" name jobs)
    [ 2; 4 ]

let test_svfg_jobs_invariant_rand () =
  for seed = 0 to 7 do
    let prog = Fsam_workloads.Rand_prog.generate ~seed ~size:26 () in
    check_svfg_jobs_invariant ~name:(Printf.sprintf "rand_ir/seed%d" seed) (D.run prog)
  done

let test_svfg_jobs_invariant_vf () =
  let prog = Fsam_workloads.Vf_scale.build ~threads:8 20 in
  check_svfg_jobs_invariant ~name:"vf_scale/t8" (D.run prog)

let ablations =
  [
    ("default", D.default_config);
    ("no_interleaving", D.no_interleaving);
    ("no_value_flow", D.no_value_flow);
    ("no_lock", D.no_lock);
  ]

let test_svfg_jobs_invariant_ablations () =
  let prog = Fsam_workloads.Vf_scale.build ~threads:8 20 in
  List.iter
    (fun (name, config) ->
      (* the full pipeline under the ablation, then the value-flow phase
         re-run at each jobs value with the same ablated config *)
      let d = D.run ~config prog in
      check_svfg_jobs_invariant ~name:(Printf.sprintf "vf_scale/%s" name)
        ~config:config.D.svfg d;
      let render rs =
        String.concat "\n" (List.map (Format.asprintf "%a" (Fsam_core.Races.pp_race d)) rs)
      in
      let r1 = render (Fsam_core.Races.detect d) in
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s: race report jobs=%d" name jobs)
            r1
            (render (Fsam_core.Races.detect (D.run ~config:{ config with D.jobs } prog))))
        [ 2; 4 ])
    ablations

(* -- qcheck properties ---------------------------------------------------- *)

let prop_indexed_agrees_naive =
  QCheck.Test.make ~count:10 ~name:"indexed MHP/lock queries agree with naive (random IR)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let prog = Fsam_workloads.Rand_prog.generate ~seed ~size:20 () in
      check_queries_agree ~name:(Printf.sprintf "qcheck/seed%d" seed) (D.run prog);
      true)

let prop_svfg_jobs_invariant =
  QCheck.Test.make ~count:8 ~name:"thread-aware SVFG identical across jobs (random IR)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let prog = Fsam_workloads.Rand_prog.generate ~seed ~size:20 () in
      let d = D.run prog in
      check_svfg_jobs_invariant ~name:(Printf.sprintf "qcheck/seed%d" seed) d;
      true)

let suite =
  [
    Alcotest.test_case "indexed queries agree (random IR)" `Slow test_queries_agree_rand_ir;
    Alcotest.test_case "indexed queries agree (random MiniC)" `Slow
      test_queries_agree_rand_minic;
    Alcotest.test_case "indexed queries agree (vf workload)" `Quick
      test_queries_agree_vf_workload;
    Alcotest.test_case "svfg jobs-invariant (random IR)" `Slow test_svfg_jobs_invariant_rand;
    Alcotest.test_case "svfg jobs-invariant (vf workload)" `Quick test_svfg_jobs_invariant_vf;
    Alcotest.test_case "svfg jobs-invariant under ablations" `Slow
      test_svfg_jobs_invariant_ablations;
    QCheck_alcotest.to_alcotest prop_indexed_agrees_naive;
    QCheck_alcotest.to_alcotest prop_svfg_jobs_invariant;
  ]
