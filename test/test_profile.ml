(* Execution-profiler tests:

   - Timeline rings: fixed-width wraparound, oldest-first readout;
   - Fsam_par integration: per-lane rings with correct chunk bounds,
     cross-domain merge events in lane order, absorption determinism;
   - observation-only: analysis results byte-identical with profiling on
     and off, and the profiled event stream deterministic at jobs=1 with
     per-item event counts identical across jobs 1/2/4;
   - convergence monitor: samples recorded with the documented interval;
   - histogram quantiles (p50/p95/p99) and the profile document's JSON
     round-trip (deterministic and qcheck-arbitrary). *)

module D = Fsam_core.Driver
module Obs = Fsam_obs
module Tl = Obs.Timeline
module P = Obs.Profile
module J = Obs.Json

let with_profiling f =
  P.set_enabled true;
  P.reset ();
  Fun.protect
    ~finally:(fun () ->
      P.set_enabled false;
      P.reset ())
    f

let word_count () =
  let spec = Option.get (Fsam_workloads.Suite.find "word_count") in
  spec.Fsam_workloads.Suite.build 40

(* full-size word_count: enough solver propagations (> 512) for the
   convergence monitor to take samples *)
let word_count_full () =
  let spec = Option.get (Fsam_workloads.Suite.find "word_count") in
  spec.Fsam_workloads.Suite.build spec.Fsam_workloads.Suite.scale

(* -- ring buffer ----------------------------------------------------------- *)

let test_ring_wraparound () =
  with_profiling (fun () ->
      let r = Tl.create_ring ~cap:8 ~region:"t" ~lane:0 () in
      for i = 0 to 19 do
        Tl.record r ~kind:Tl.k_item ~a:i ~b:(i * 2)
      done;
      Alcotest.(check int) "recorded" 20 (Tl.n_recorded r);
      Alcotest.(check int) "retained" 8 (Tl.n_events r);
      Alcotest.(check int) "dropped" 12 (Tl.dropped r);
      let keys = List.map (fun (_, _, a, _) -> a) (Tl.events r) in
      (* oldest-first: the 8 youngest events, in recording order *)
      Alcotest.(check (list int)) "oldest first" [ 12; 13; 14; 15; 16; 17; 18; 19 ] keys;
      List.iter
        (fun (_, k, a, b) ->
          Alcotest.(check int) "kind" Tl.k_item k;
          Alcotest.(check int) "payload" (a * 2) b)
        (Tl.events r);
      (* no wraparound below cap *)
      let r2 = Tl.create_ring ~cap:8 ~region:"t" ~lane:1 () in
      Tl.record r2 ~kind:Tl.k_item ~a:7 ~b:0;
      Alcotest.(check int) "no drop" 0 (Tl.dropped r2);
      Alcotest.(check int) "one event" 1 (Tl.n_events r2))

(* -- cross-domain merge ordering ------------------------------------------- *)

let test_par_merge_ordering () =
  with_profiling (fun () ->
      let n = 103 and jobs = 4 in
      (* cutoff 0: one block per item, stolen across the four lanes *)
      let sums =
        Fsam_par.run_chunks ~label:"tmerge" ~cutoff:0 ~jobs ~n (fun ~lo ~hi ->
            let s = ref 0 in
            for i = lo to hi - 1 do
              Tl.emit ~kind:Tl.k_item ~a:i ~b:0;
              s := !s + i
            done;
            !s)
      in
      Alcotest.(check (list int)) "block order = serial traversal" (List.init n Fun.id) sums;
      let rings =
        List.filter (fun (r : Tl.ring) -> r.Tl.region = "tmerge") (Tl.collected ())
      in
      Alcotest.(check int) "one ring per lane" jobs (List.length rings);
      Alcotest.(check (list int)) "lane order" [ 0; 1; 2; 3 ]
        (List.map (fun (r : Tl.ring) -> r.Tl.lane) rings);
      (* each block's item events sit between its chunk start and stop, on
         whichever lane ran it; together the blocks cover [0, n) once *)
      let blocks =
        List.concat_map
          (fun r ->
            let rec walk acc = function
              | (_, k, lo, hi) :: rest when k = Tl.k_chunk_start ->
                let items = List.filteri (fun i _ -> i < hi - lo) rest in
                Alcotest.(check (list (pair int int))) "block items"
                  (List.init (hi - lo) (fun i -> (Tl.k_item, lo + i)))
                  (List.map (fun (_, k, a, _) -> (k, a)) items);
                walk ((lo, hi) :: acc) rest
              | _ :: rest -> walk acc rest
              | [] -> acc
            in
            walk [] (Tl.events r))
          rings
      in
      let last =
        List.fold_left
          (fun prev (lo, hi) ->
            Alcotest.(check int) "contiguous" prev lo;
            hi)
          0 (List.sort compare blocks)
      in
      Alcotest.(check int) "covers n" n last;
      (* lane 0 recorded one merge event per worker, in join order *)
      let merges =
        List.filter_map
          (fun (_, k, a, _) -> if k = Tl.k_merge then Some a else None)
          (Tl.events (List.hd rings))
      in
      Alcotest.(check (list int)) "merge order" [ 1; 2; 3 ] merges)

(* -- determinism ----------------------------------------------------------- *)

let timeline_signature () =
  List.map
    (fun (r : Tl.ring) ->
      ( r.Tl.region,
        r.Tl.lane,
        List.map (fun (_, k, a, b) -> (k, a, b)) (Tl.events r) ))
    (Tl.collected ())

(* The memo hit/miss fields depend on the union-memo's table state left by
   earlier in-process runs (tags differ per run), so a same-process replay
   compares everything but those. *)
let sample_signature s = (s.P.s_prop, s.P.s_depth, s.P.s_facts, s.P.s_facts_delta)

let test_profile_deterministic_j1 () =
  let prog = word_count_full () in
  let config = { D.default_config with profile = true; jobs = 1 } in
  let run () =
    let d = D.run ~config prog in
    let sig_ = timeline_signature () in
    let samples = List.map sample_signature (P.samples ()) in
    (d, sig_, samples)
  in
  let _, sig1, samples1 = run () in
  let _, sig2, samples2 = run () in
  Alcotest.(check bool) "timeline signature deterministic" true (sig1 = sig2);
  Alcotest.(check bool) "convergence samples deterministic" true (samples1 = samples2);
  Alcotest.(check bool) "samples recorded" true (samples1 <> []);
  Alcotest.(check int) "interval" 512 (P.sample_interval ());
  List.iter
    (fun (p, _, _, _) ->
      Alcotest.(check int) "sampled on the interval" 0 (p mod 512))
    samples1;
  P.set_enabled false;
  P.reset ()

let test_item_events_identical_across_jobs () =
  let prog = word_count () in
  let region_items region =
    List.concat_map
      (fun (r : Tl.ring) ->
        if r.Tl.region = region then
          List.filter_map
            (fun (_, k, a, _) -> if k = Tl.k_item then Some a else None)
            (Tl.events r)
        else [])
      (Tl.collected ())
  in
  let per_jobs jobs =
    let d = D.run ~config:{ D.default_config with profile = true; jobs } prog in
    let svfg_items = List.sort compare (region_items "svfg.pairs") in
    let races = Fsam_core.Races.detect d in
    (svfg_items, races)
  in
  let base_items, base_races = per_jobs 1 in
  Alcotest.(check bool) "svfg items recorded" true (base_items <> []);
  List.iter
    (fun jobs ->
      let items, races = per_jobs jobs in
      Alcotest.(check bool)
        (Printf.sprintf "svfg item keys identical at jobs=%d" jobs)
        true (items = base_items);
      Alcotest.(check bool)
        (Printf.sprintf "races identical at jobs=%d" jobs)
        true (races = base_races))
    [ 2; 4 ];
  P.set_enabled false;
  P.reset ()

let test_results_identical_profiling_on_off () =
  let prog = word_count () in
  let snapshot profile =
    let d = D.run ~config:{ D.default_config with profile } prog in
    let pts =
      List.init (Fsam_ir.Prog.n_vars prog) (fun v -> D.pt_names d v)
    in
    let races =
      List.map
        (Format.asprintf "%a" (Fsam_core.Races.pp_race d))
        (Fsam_core.Races.detect d)
    in
    (pts, races)
  in
  let off = snapshot false in
  let on = snapshot true in
  Alcotest.(check bool) "results identical profiling on/off" true (off = on);
  P.set_enabled false;
  P.reset ()

(* -- quantiles -------------------------------------------------------------- *)

let test_histogram_quantiles () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram "q.test" in
  Alcotest.(check int) "empty p50" 0 (Obs.Metrics.quantile h 0.50);
  List.iter (fun v -> Obs.Metrics.observe h v) [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  (* buckets: 1 -> le 1, 2 -> le 2, {3,4} -> le 4, {5..8} -> le 8 *)
  Alcotest.(check int) "p50" 4 (Obs.Metrics.quantile h 0.50);
  Alcotest.(check int) "p95" 8 (Obs.Metrics.quantile h 0.95);
  Alcotest.(check int) "p99" 8 (Obs.Metrics.quantile h 0.99);
  let h1 = Obs.Metrics.histogram "q.ones" in
  for _ = 1 to 10 do
    Obs.Metrics.observe h1 1
  done;
  Alcotest.(check int) "all-ones p99" 1 (Obs.Metrics.quantile h1 0.99);
  (* the summaries land in the exported document *)
  (match J.member "histograms" (Obs.Metrics.to_json ()) with
  | Some (J.Obj hs) ->
    let doc = List.assoc "q.test" hs in
    Alcotest.(check bool) "p50 exported" true (J.member "p50" doc = Some (J.Int 4));
    Alcotest.(check bool) "p95 exported" true (J.member "p95" doc = Some (J.Int 8));
    Alcotest.(check bool) "p99 exported" true (J.member "p99" doc = Some (J.Int 8))
  | _ -> Alcotest.fail "histograms missing from metrics document");
  Obs.Metrics.reset ()

(* -- profile document JSON -------------------------------------------------- *)

let roundtrip doc =
  match J.of_string (J.to_string doc) with
  | Ok parsed -> J.equal doc parsed
  | Error e -> Alcotest.failf "parse error: %s" e

let test_profile_doc_roundtrip () =
  (* a real profiled run: rings, samples, the lot *)
  let prog = word_count () in
  ignore (D.run ~config:{ D.default_config with profile = true; jobs = 2 } prog);
  let doc = P.to_json () in
  Alcotest.(check bool) "schema" true
    (J.member "schema" doc = Some (J.String P.schema));
  Alcotest.(check bool) "real profile round-trips" true (roundtrip doc);
  P.set_enabled false;
  P.reset ()

let qcheck_profile_doc_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"profile document round-trips arbitrary state" ~count:50
       QCheck.(
         pair
           (small_list (array_of_size (QCheck.Gen.return 6) small_nat))
           (small_list (array_of_size (QCheck.Gen.return 2) small_nat)))
       (fun (samples, stalls) ->
         P.set_enabled true;
         P.reset ();
         Fun.protect
           ~finally:(fun () ->
             P.set_enabled false;
             P.reset ())
           (fun () ->
             List.iter
               (fun a ->
                 P.add_sample
                   {
                     P.s_prop = a.(0);
                     s_depth = a.(1);
                     s_facts = a.(2);
                     s_facts_delta = a.(3);
                     s_memo_hits = a.(4);
                     s_memo_misses = a.(5);
                   })
               samples;
             List.iter
               (fun a ->
                 P.add_stall { P.st_prop = a.(0); st_samples = a.(1) })
               stalls;
             Tl.with_ring ~cap:16 ~region:"qr" ~lane:0 (fun () ->
                 List.iteri
                   (fun i a ->
                     Tl.emit ~kind:Tl.k_item ~a:i ~b:(Array.fold_left ( + ) 0 a))
                   samples);
             roundtrip (P.to_json ()))))

let suite =
  [
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "par merge ordering" `Quick test_par_merge_ordering;
    Alcotest.test_case "profile deterministic at jobs=1" `Quick
      test_profile_deterministic_j1;
    Alcotest.test_case "item events identical across jobs" `Quick
      test_item_events_identical_across_jobs;
    Alcotest.test_case "results identical profiling on/off" `Quick
      test_results_identical_profiling_on_off;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "profile document round-trip" `Quick test_profile_doc_roundtrip;
    qcheck_profile_doc_roundtrip;
  ]
