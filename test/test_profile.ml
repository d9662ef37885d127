(* Execution-profiler tests:

   - observation-only: analysis results byte-identical with profiling on
     and off, and the convergence samples deterministic across runs;
   - convergence monitor: samples recorded with the documented interval;
   - histogram quantiles (p50/p95/p99) and the profile document's JSON
     round-trip (deterministic and qcheck-arbitrary). *)

module D = Fsam_core.Driver
module Obs = Fsam_obs
module P = Obs.Profile
module J = Obs.Json

let word_count () =
  let spec = Option.get (Fsam_workloads.Suite.find "word_count") in
  spec.Fsam_workloads.Suite.build 40

(* full-size word_count: enough solver propagations (> 512) for the
   convergence monitor to take samples *)
let word_count_full () =
  let spec = Option.get (Fsam_workloads.Suite.find "word_count") in
  spec.Fsam_workloads.Suite.build spec.Fsam_workloads.Suite.scale

(* -- determinism ----------------------------------------------------------- *)

(* The memo hit/miss fields depend on the union-memo's table state left by
   earlier in-process runs (tags differ per run), so a same-process replay
   compares everything but those. *)
let sample_signature s = (s.P.s_prop, s.P.s_depth, s.P.s_facts, s.P.s_facts_delta)

let test_profile_deterministic () =
  let prog = word_count_full () in
  let config = { D.default_config with profile = true } in
  let run () =
    ignore (D.run ~config prog);
    List.map sample_signature (P.samples ())
  in
  let samples1 = run () in
  let samples2 = run () in
  Alcotest.(check bool) "convergence samples deterministic" true (samples1 = samples2);
  Alcotest.(check bool) "samples recorded" true (samples1 <> []);
  Alcotest.(check int) "interval" 512 (P.sample_interval ());
  List.iter
    (fun (p, _, _, _) ->
      Alcotest.(check int) "sampled on the interval" 0 (p mod 512))
    samples1;
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
  (* a real profiled run: samples, stalls, the lot *)
  let prog = word_count () in
  ignore (D.run ~config:{ D.default_config with profile = true } prog);
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
             roundtrip (P.to_json ()))))

let suite =
  [
    Alcotest.test_case "profile deterministic" `Quick test_profile_deterministic;
    Alcotest.test_case "results identical profiling on/off" `Quick
      test_results_identical_profiling_on_off;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "profile document round-trip" `Quick test_profile_doc_roundtrip;
    qcheck_profile_doc_roundtrip;
  ]
