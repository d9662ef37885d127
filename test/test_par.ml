(* Domain-parallel layer tests:

   - Fsam_par.run_chunks: exact range decomposition, ordered merge, serial
     fallback;
   - Iset domain-safety: concurrent union/inter/add from 4 domains preserve
     the hash-consing invariants (structurally equal sets are physically
     equal across domains, [hash]/[compare] consistent with [equal]);
   - client determinism: Leaks/Deadlocks reports and the MHP facts are
     identical for jobs ∈ {1, 2, 4} on random MiniC programs and on random
     IR programs, and so is the race report of a pipeline run at each jobs
     value (races are read off the SVFG, whose pair discovery is the
     parallel region). *)

module D = Fsam_core.Driver
module Iset = Fsam_dsa.Iset

(* -- Fsam_par ------------------------------------------------------------- *)

let test_run_chunks_decomposition () =
  List.iter
    (fun (n, jobs, cutoff) ->
      let weight i = 1 + (i mod 3) in
      let chunks =
        Fsam_par.run_chunks ~weight ~cutoff ~jobs ~n (fun ~lo ~hi -> (lo, hi))
      in
      (* exactly the planned blocks, a contiguous cover of [0, n) in order *)
      Alcotest.(check int)
        (Printf.sprintf "n=%d jobs=%d cutoff=%d: block count" n jobs cutoff)
        (Array.length (Fsam_par.plan ~weight ~cutoff ~n ()) - 1)
        (List.length chunks);
      let last =
        List.fold_left
          (fun prev (lo, hi) ->
            Alcotest.(check int) "contiguous" prev lo;
            Alcotest.(check bool) "non-negative size" true (hi >= lo);
            hi)
          0 chunks
      in
      Alcotest.(check int) "covers n" n last)
    [ (0, 1, 0); (0, 4, 0); (1, 4, 0); (10, 3, 4); (10, 1, 4); (3, 8, 0); (1000, 4, 64);
      (1000, 4, 65536); (7, 7, 1) ]

let test_run_chunks_ordered_merge () =
  (* concatenating per-block accumulators in block order must equal the
     serial left-to-right traversal, for any jobs value; the tiny cutoff and
     skewed weights make the work-stealing path actually engage *)
  let n = 237 in
  let serial = List.init n (fun i -> i * i) in
  let body ~lo ~hi =
    List.init (hi - lo) (fun k ->
        let i = lo + k in
        i * i)
  in
  List.iter
    (fun jobs ->
      let blocks =
        Fsam_par.run_chunks ~cutoff:16 ~weight:(fun i -> 1 + (i mod 7)) ~jobs ~n body
      in
      Alcotest.(check bool) "decomposed" true (List.length blocks > 1);
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d merge" jobs)
        serial (List.concat blocks))
    [ 1; 2; 3; 4; 8 ]

let test_run_chunks_serial_path () =
  (* jobs=1 must run in the calling domain (no spawn): observable via a
     mutable cell that a spawned domain could not safely share *)
  let self = Domain.self () in
  let ran_in = ref None in
  ignore (Fsam_par.run_chunks ~jobs:1 ~n:5 (fun ~lo:_ ~hi:_ -> ran_in := Some (Domain.self ())));
  Alcotest.(check bool) "jobs=1 stays on the calling domain" true (!ran_in = Some self);
  (* sub-cutoff work stays on the calling domain even at jobs=4 *)
  let lanes = ref [] in
  ignore
    (Fsam_par.run_chunks ~jobs:4 ~n:64 (fun ~lo:_ ~hi:_ ->
         lanes := Domain.self () :: !lanes));
  Alcotest.(check bool) "sub-cutoff jobs=4 stays on the calling domain" true
    (!lanes = [ self ])

(* -- adaptive plan and cutoff ---------------------------------------------- *)

let test_plan_invariants () =
  (* boundaries cover [0, n) monotonically; below-cutoff plans are the
     single serial block; the block count respects the caps *)
  List.iter
    (fun (n, cutoff, wf) ->
      let bounds = Fsam_par.plan ~weight:wf ~cutoff ~n () in
      let nb = Array.length bounds - 1 in
      Alcotest.(check int) "starts at 0" 0 bounds.(0);
      Alcotest.(check int) "ends at n" n bounds.(nb);
      Array.iteri
        (fun i b -> if i > 0 then Alcotest.(check bool) "monotone" true (b >= bounds.(i - 1)))
        bounds;
      Alcotest.(check bool) "block cap" true (nb <= max 1 (min n 256));
      let total = ref 0 in
      for i = 0 to n - 1 do
        total := !total + max 0 (wf i)
      done;
      if !total < cutoff then
        Alcotest.(check int) (Printf.sprintf "n=%d below cutoff is serial" n) 1 nb;
      (* purity: same inputs, same plan *)
      Alcotest.(check bool) "pure" true (bounds = Fsam_par.plan ~weight:wf ~cutoff ~n ()))
    [
      (0, 100, fun _ -> 1);
      (1, 0, fun _ -> 1000);
      (50, 1000, fun _ -> 1);
      (50, 10, fun _ -> 1);
      (1000, 64, fun i -> i mod 13);
      (10_000, 65536, fun _ -> 9);
      (300, 8, fun i -> if i = 7 then 10_000 else 1);
    ]

let test_adaptive_ranges_jobs_invariant () =
  (* the exact (lo, hi) ranges f is called on — and their order in the
     result — must not depend on jobs: per-block caches and counters hinge
     on this *)
  let ranges jobs =
    Fsam_par.run_chunks ~cutoff:32
      ~weight:(fun i -> 1 + (i mod 5))
      ~jobs ~n:500
      (fun ~lo ~hi -> (lo, hi))
  in
  let base = ranges 1 in
  Alcotest.(check bool) "above cutoff: really decomposed" true (List.length base > 1);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "ranges identical at jobs=%d" jobs)
        true
        (ranges jobs = base))
    [ 2; 4; 8 ]

let test_cutoff_fires_no_domain_gauges () =
  (* satellite: a sub-threshold input at jobs=4 must not spawn (no
     par.<label>.domain1.* gauges), and a later narrow run of the same
     region must clear the stale wide-run gauges *)
  Fsam_obs.Metrics.reset ();
  let label = "cutofftest" in
  let body ~lo ~hi = hi - lo in
  (* wide run first: cutoff 0 forces the parallel path, leaving domain1+ *)
  ignore
    (Fsam_par.run_chunks ~label ~cutoff:0 ~jobs:4 ~n:600 body);
  Alcotest.(check bool) "wide run recorded domain1" true
    (Fsam_obs.Metrics.find_gauge "par.cutofftest.domain1.wall_us" <> None);
  (* sub-threshold run: serial, and the stale per-domain gauges are gone *)
  ignore (Fsam_par.run_chunks ~label ~jobs:4 ~n:100 body);
  Alcotest.(check int) "cutoff engaged: one lane"
    1
    (Option.get (Fsam_obs.Metrics.find_gauge "par.cutofftest.chunks"));
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (Printf.sprintf "no stale %s" g)
        true
        (Fsam_obs.Metrics.find_gauge (Printf.sprintf "par.cutofftest.%s" g) = None))
    [ "domain1.wall_us"; "domain1.items"; "domain2.wall_us"; "domain3.items" ];
  Alcotest.(check bool) "domain0 still attributed" true
    (Fsam_obs.Metrics.find_gauge "par.cutofftest.domain0.items" = Some 100);
  Fsam_obs.Metrics.reset ()

(* -- Iset domain safety --------------------------------------------------- *)

(* Each domain performs the same deterministic mix of constructions and
   merges; hash-consing must canonicalise across domains, so the i-th result
   of every domain is one physically equal node. *)
let test_iset_concurrent_hashcons () =
  let base = Iset.of_list (List.init 400 (fun i -> i * 3)) in
  let other = Iset.of_list (List.init 400 (fun i -> (i * 5) + 1)) in
  let work () =
    List.init 250 (fun k ->
        let a = Iset.add (k * 7) base in
        let b = Iset.inter other (Iset.add ((k * 2) + 1) a) in
        Iset.union (Iset.union a b) (Iset.of_list [ k; k + 1; k * 11 ]))
  in
  let domains = List.init 4 (fun _ -> Domain.spawn work) in
  let per_domain = List.map Domain.join domains in
  let reference = work () in
  List.iteri
    (fun d results ->
      List.iteri
        (fun i r ->
          let expected = List.nth reference i in
          if not (r == expected) then
            Alcotest.failf "domain %d result %d not physically canonical" d i;
          Alcotest.(check int) "hash agrees" (Iset.hash expected) (Iset.hash r);
          Alcotest.(check int) "compare agrees" 0 (Iset.compare expected r);
          Alcotest.(check bool) "equal agrees" true (Iset.equal expected r))
        results)
    per_domain;
  (* the canonical nodes also carry correct contents *)
  let r0 = List.nth reference 0 in
  Alcotest.(check bool) "mem holds" true (Iset.mem 0 r0 && Iset.mem 11 (List.nth reference 1))

let test_iset_concurrent_fixpoint_contract () =
  (* [union a b == a] iff b ⊆ a must hold for unions computed on other
     domains: the solver's fixpoint test depends on it *)
  let a = Iset.of_list (List.init 300 (fun i -> i * 2)) in
  let b = Iset.of_list (List.init 100 (fun i -> i * 4)) in
  let checks () = List.init 50 (fun k -> Iset.union a (Iset.add (k * 4) b) == a) in
  let domains = List.init 4 (fun _ -> Domain.spawn checks) in
  List.iter
    (fun d ->
      List.iter (fun ok -> Alcotest.(check bool) "subset union is identity" true ok) (Domain.join d))
    domains

(* -- client determinism across jobs --------------------------------------- *)

let jobs_values = [ 1; 2; 4 ]

(* races are read off the SVFG, so their jobs-invariance is the pipeline's *)
let races_at prog jobs =
  Fsam_core.Races.detect (D.run ~config:{ D.default_config with D.jobs } prog)

let check_clients_deterministic ~name prog =
  let d = D.run prog in
  let races = Fsam_core.Races.detect d in
  let leaks = Fsam_core.Leaks.detect ~jobs:1 d in
  let dls = Fsam_core.Deadlocks.detect ~jobs:1 d in
  List.iter
    (fun jobs ->
      if races_at prog jobs <> races then
        Alcotest.failf "%s: races differ at jobs=%d" name jobs;
      if Fsam_core.Leaks.detect ~jobs d <> leaks then
        Alcotest.failf "%s: leaks differ at jobs=%d" name jobs;
      if Fsam_core.Deadlocks.detect ~jobs d <> dls then
        Alcotest.failf "%s: deadlocks differ at jobs=%d" name jobs)
    jobs_values;
  (* MHP: per-instance interference facts and the fixpoint work count are
     jobs-invariant (the sibling fan-out preserves the seeding order) *)
  let m1 = Fsam_mta.Mhp.compute ~jobs:1 d.D.tm in
  List.iter
    (fun jobs ->
      let mj = Fsam_mta.Mhp.compute ~jobs d.D.tm in
      Alcotest.(check int)
        (Printf.sprintf "%s: mhp iterations jobs=%d" name jobs)
        (Fsam_mta.Mhp.n_iterations m1) (Fsam_mta.Mhp.n_iterations mj);
      for i = 0 to Fsam_mta.Threads.n_insts d.D.tm - 1 do
        if not (Iset.equal (Fsam_mta.Mhp.interference m1 i) (Fsam_mta.Mhp.interference mj i))
        then Alcotest.failf "%s: mhp fact differs at inst %d, jobs=%d" name i jobs
      done)
    jobs_values

let test_clients_deterministic_rand_ir () =
  for seed = 0 to 11 do
    let prog = Fsam_workloads.Rand_prog.generate ~seed ~size:26 () in
    check_clients_deterministic ~name:(Printf.sprintf "rand_ir/seed%d" seed) prog
  done

let test_clients_deterministic_rand_minic () =
  for seed = 0 to 11 do
    let src = Fsam_workloads.Rand_minic.generate ~seed ~size:18 in
    let prog = Fsam_frontend.Lower.compile_string src in
    check_clients_deterministic ~name:(Printf.sprintf "rand_minic/seed%d" seed) prog
  done

(* qcheck properties: jobs-invariance on random MiniC programs drawn by
   generator seed, and concurrent hash-consing on random element lists *)
let prop_clients_jobs_invariant =
  QCheck.Test.make ~count:12 ~name:"races/leaks/deadlocks jobs-invariant (random MiniC)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let src = Fsam_workloads.Rand_minic.generate ~seed ~size:14 in
      let prog = Fsam_frontend.Lower.compile_string src in
      let d = D.run prog in
      let races = Fsam_core.Races.detect d in
      let leaks = Fsam_core.Leaks.detect ~jobs:1 d in
      let dls = Fsam_core.Deadlocks.detect ~jobs:1 d in
      List.for_all
        (fun jobs ->
          races_at prog jobs = races
          && Fsam_core.Leaks.detect ~jobs d = leaks
          && Fsam_core.Deadlocks.detect ~jobs d = dls)
        [ 2; 4 ])

let prop_iset_concurrent_canonical =
  QCheck.Test.make ~count:20 ~name:"concurrent union/inter canonical across domains"
    QCheck.(pair (list_of_size Gen.(1 -- 60) (int_bound 500))
              (list_of_size Gen.(1 -- 60) (int_bound 500)))
    (fun (la, lb) ->
      let work () =
        let a = Iset.of_list la and b = Iset.of_list lb in
        (Iset.union a b, Iset.inter a b, Iset.diff a b)
      in
      let domains = List.init 4 (fun _ -> Domain.spawn work) in
      let results = List.map Domain.join domains in
      let u0, i0, d0 = work () in
      List.for_all (fun (u, i, d) -> u == u0 && i == i0 && d == d0) results)

(* qcheck: the work-stealing scheduler must be observationally identical to
   the serial traversal — races report and SVFG edge counts byte-identical
   for jobs 1/2/4/8 on random MiniC with the cutoff dropped to 8 (so the
   fan-out really decomposes and steals even on tiny programs), against a
   default-cutoff serial run. *)
let prop_adaptive_matches_serial =
  QCheck.Test.make ~count:8 ~name:"adaptive == serial digests (MiniC)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let src = Fsam_workloads.Rand_minic.generate ~seed ~size:14 in
      let prog = Fsam_frontend.Lower.compile_string src in
      let digest jobs =
        let d = D.run ~config:{ D.default_config with D.jobs } prog in
        ( String.concat "\n"
            (List.map
               (Format.asprintf "%a" (Fsam_core.Races.pp_race d))
               (Fsam_core.Races.detect d)),
          Fsam_memssa.Svfg.n_edges d.D.svfg,
          Fsam_memssa.Svfg.n_thread_aware_edges d.D.svfg )
      in
      let reference = digest 1 in
      let saved = Fsam_par.cutoff () in
      Fsam_par.set_cutoff 8;
      Fun.protect
        ~finally:(fun () -> Fsam_par.set_cutoff saved)
        (fun () -> List.for_all (fun jobs -> digest jobs = reference) [ 1; 2; 4; 8 ]))

let test_clients_deterministic_workload () =
  (* one real benchmark end-to-end, including the rendered report *)
  let spec = Option.get (Fsam_workloads.Suite.find "word_count") in
  let prog = spec.Fsam_workloads.Suite.build 40 in
  let d = D.run prog in
  let render rs =
    String.concat "\n" (List.map (Format.asprintf "%a" (Fsam_core.Races.pp_race d)) rs)
  in
  let r1 = render (Fsam_core.Races.detect d) in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "word_count report jobs=%d" jobs)
        r1
        (render (races_at prog jobs)))
    jobs_values

let suite =
  [
    Alcotest.test_case "run_chunks decomposition" `Quick test_run_chunks_decomposition;
    Alcotest.test_case "run_chunks ordered merge" `Quick test_run_chunks_ordered_merge;
    Alcotest.test_case "run_chunks serial path" `Quick test_run_chunks_serial_path;
    Alcotest.test_case "adaptive plan invariants" `Quick test_plan_invariants;
    Alcotest.test_case "adaptive ranges jobs-invariant" `Quick
      test_adaptive_ranges_jobs_invariant;
    Alcotest.test_case "cutoff fires, stale domain gauges cleared" `Quick
      test_cutoff_fires_no_domain_gauges;
    Alcotest.test_case "iset concurrent hash-consing" `Quick test_iset_concurrent_hashcons;
    Alcotest.test_case "iset concurrent fixpoint contract" `Quick
      test_iset_concurrent_fixpoint_contract;
    Alcotest.test_case "clients deterministic (random IR)" `Slow
      test_clients_deterministic_rand_ir;
    Alcotest.test_case "clients deterministic (random MiniC)" `Slow
      test_clients_deterministic_rand_minic;
    Alcotest.test_case "clients deterministic (word_count report)" `Quick
      test_clients_deterministic_workload;
    QCheck_alcotest.to_alcotest prop_clients_jobs_invariant;
    QCheck_alcotest.to_alcotest prop_adaptive_matches_serial;
    QCheck_alcotest.to_alcotest prop_iset_concurrent_canonical;
  ]
