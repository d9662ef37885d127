(* Observability layer: span nesting/ordering, metrics registry behavior,
   JSON round-tripping, Chrome trace shape, and the telemetry document the
   CLI's `analyze --json` emits (golden structural test on word_count). *)

module Obs = Fsam_obs
module J = Fsam_obs.Json

let test_span_nesting () =
  Obs.Span.reset ();
  Obs.Span.with_ ~name:"outer" (fun () ->
      Obs.Span.with_ ~name:"a" (fun () ->
          for i = 1 to 1_000 do
            ignore (Sys.opaque_identity (ref i))
          done);
      Obs.Span.with_ ~name:"b" (fun () -> ()));
  match Obs.Span.roots () with
  | [ root ] ->
    Alcotest.(check string) "root name" "outer" root.Obs.Span.name;
    Alcotest.(check (list string))
      "children in execution order" [ "a"; "b" ]
      (List.map (fun c -> c.Obs.Span.name) root.Obs.Span.children);
    Alcotest.(check int) "span count" 3 (Obs.Span.count root);
    Alcotest.(check bool) "durations non-negative" true (root.Obs.Span.dur_s >= 0.);
    Alcotest.(check bool)
      "children bounded by parent" true
      (List.for_all
         (fun c -> c.Obs.Span.dur_s <= root.Obs.Span.dur_s +. 1e-6)
         root.Obs.Span.children);
    Alcotest.(check bool)
      "allocation recorded on a" true
      (match root.Obs.Span.children with
      | a :: _ -> a.Obs.Span.minor_words +. a.Obs.Span.major_words > 0.
      | [] -> false)
  | l -> Alcotest.failf "expected one root, got %d" (List.length l)

let test_span_exception () =
  Obs.Span.reset ();
  (try Obs.Span.with_ ~name:"boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  Alcotest.(check (list string))
    "span recorded despite exception" [ "boom" ]
    (Obs.Span.distinct_names (Obs.Span.roots ()))

let test_span_timed () =
  Obs.Span.reset ();
  let v, sp = Obs.Span.with_timed ~name:"timed" (fun () -> 42) in
  Alcotest.(check int) "value passed through" 42 v;
  Alcotest.(check string) "completed span returned" "timed" sp.Obs.Span.name;
  Alcotest.(check bool) "find locates it" true (Obs.Span.find "timed" (Obs.Span.roots ()) <> None)

let test_counters () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.counter" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  Alcotest.(check int) "accumulated" 5 (Obs.Metrics.counter_value c);
  Alcotest.(check (option int)) "find by name" (Some 5) (Obs.Metrics.find_counter "test.counter");
  let c' = Obs.Metrics.counter "test.counter" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "same handle by name" 6 (Obs.Metrics.counter_value c);
  Alcotest.(check bool)
    "monotonic: negative add rejected" true
    (match Obs.Metrics.add c (-1) with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check int) "value unchanged after rejected add" 6 (Obs.Metrics.counter_value c)

let test_gauges_histograms () =
  Obs.Metrics.reset ();
  let g = Obs.Metrics.gauge "test.gauge" in
  Obs.Metrics.set g 7;
  Obs.Metrics.set_max g 3;
  Alcotest.(check int) "set_max keeps peak" 7 (Obs.Metrics.gauge_value g);
  Obs.Metrics.set_max g 11;
  Alcotest.(check int) "set_max raises peak" 11 (Obs.Metrics.gauge_value g);
  let h = Obs.Metrics.histogram "test.histo" in
  List.iter (Obs.Metrics.observe h) [ 1; 2; 3; 900 ];
  (match J.member "histograms" (Obs.Metrics.to_json ()) with
  | Some (J.Obj hs) -> (
    match List.assoc_opt "test.histo" hs with
    | Some hj ->
      Alcotest.(check (option bool)) "count" (Some true)
        (Option.map (J.equal (J.Int 4)) (J.member "count" hj));
      Alcotest.(check (option bool)) "sum" (Some true)
        (Option.map (J.equal (J.Int 906)) (J.member "sum" hj))
    | None -> Alcotest.fail "histogram missing from export")
  | _ -> Alcotest.fail "no histograms section");
  Obs.Metrics.reset ();
  Alcotest.(check (option int)) "reset empties registry" None
    (Obs.Metrics.find_gauge "test.gauge")

let test_json_roundtrip () =
  let doc =
    J.Obj
      [
        ("null", J.Null);
        ("true", J.Bool true);
        ("false", J.Bool false);
        ("int", J.Int (-42));
        ("float", J.Float 1.5);
        ("string", J.String "a\"b\\c\nd\te\r \012 \001 plain");
        ("empty_list", J.List []);
        ("list", J.List [ J.Int 1; J.String "x"; J.Obj [ ("k", J.Null) ] ]);
        ("empty_obj", J.Obj []);
      ]
  in
  (match J.of_string (J.to_string doc) with
  | Ok parsed -> Alcotest.(check bool) "pretty round-trip" true (J.equal doc parsed)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match J.of_string (J.to_string ~minify:true doc) with
  | Ok parsed -> Alcotest.(check bool) "minified round-trip" true (J.equal doc parsed)
  | Error e -> Alcotest.failf "minified parse failed: %s" e

(* qcheck: arbitrary documents round-trip through the emitter and parser.
   Floats are forced fractional — the emitter prints %.12g, so an integral
   float legitimately re-parses as an Int. *)
let json_arbitrary =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) int;
        map (fun i -> J.Float (float_of_int i +. 0.5)) (int_range (-1_000_000) 1_000_000);
        map (fun s -> J.String s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  let gen =
    sized
      (fix (fun self n ->
           if n <= 0 then scalar
           else
             frequency
               [
                 (3, scalar);
                 (1, map (fun l -> J.List l) (list_size (int_range 0 4) (self (n / 3))));
                 ( 1,
                   map
                     (fun kvs -> J.Obj kvs)
                     (list_size (int_range 0 4)
                        (pair (string_size ~gen:printable (int_range 0 8)) (self (n / 3))))
                 );
               ]))
  in
  QCheck.make ~print:(fun j -> J.to_string ~minify:true j) gen

let qcheck_json_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"json round-trips arbitrary values" ~count:300 json_arbitrary
       (fun doc ->
         let ok s = match J.of_string s with Ok j -> J.equal doc j | Error _ -> false in
         ok (J.to_string doc) && ok (J.to_string ~minify:true doc)))

let test_span_snapshot () =
  Obs.Span.reset ();
  Obs.Span.with_ ~name:"done" (fun () -> ());
  Obs.Span.with_ ~name:"outer" (fun () ->
      Obs.Span.with_ ~name:"inner-done" (fun () -> ());
      Obs.Span.with_ ~name:"inner-open" (fun () ->
          match Obs.Span.snapshot () with
          | [ d0; open_root ] ->
            Alcotest.(check string) "closed root first" "done" d0.Obs.Span.name;
            Alcotest.(check string) "open root present" "outer" open_root.Obs.Span.name;
            Alcotest.(check (list string))
              "open root nests completed then open children"
              [ "inner-done"; "inner-open" ]
              (List.map (fun c -> c.Obs.Span.name) open_root.Obs.Span.children);
            Alcotest.(check bool) "open durations non-negative" true
              (open_root.Obs.Span.dur_s >= 0.)
          | l -> Alcotest.failf "expected 2 snapshot roots, got %d" (List.length l)));
  (* snapshotting did not disturb the live recording *)
  Alcotest.(check (list string))
    "normal completion unaffected" [ "done"; "outer" ]
    (List.map (fun r -> r.Obs.Span.name) (Obs.Span.roots ()))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* names appearing anywhere in the exported span forest *)
let rec json_span_names acc j =
  let name = match J.member "name" j with Some (J.String n) -> [ n ] | _ -> [] in
  let kids =
    match J.member "children" j with
    | Some (J.List l) -> l
    | _ -> []
  in
  List.fold_left json_span_names (name @ acc) kids

let test_trace_crash_flush () =
  Obs.Span.reset ();
  let path = Filename.temp_file "fsam_flush" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Trace.flush_at_exit path;
      (* simulate dying inside an open span: the flush must capture it *)
      Obs.Span.with_ ~name:"open-at-crash" (fun () -> Obs.Trace.flush_now ());
      (match J.of_string (String.trim (read_file path)) with
      | Ok doc -> (
        match J.member "traceEvents" doc with
        | Some (J.List events) ->
          Alcotest.(check bool) "open span captured" true
            (List.exists
               (fun ev -> J.member "name" ev = Some (J.String "open-at-crash"))
               events)
        | _ -> Alcotest.fail "flushed trace has no traceEvents")
      | Error e -> Alcotest.failf "flushed trace is not valid JSON: %s" e);
      (* a fired flush is disarmed: nothing rewrites the file *)
      let oc = open_out path in
      output_string oc "sentinel";
      close_out oc;
      Obs.Trace.flush_now ();
      Alcotest.(check string) "flush disarmed after firing" "sentinel" (read_file path);
      (* mark_flushed disarms a re-armed flush *)
      Obs.Trace.flush_at_exit path;
      Obs.Trace.mark_flushed ();
      Obs.Trace.flush_now ();
      Alcotest.(check string) "mark_flushed disarms" "sentinel" (read_file path))

let test_telemetry_crash_flush () =
  Obs.Span.reset ();
  let path = Filename.temp_file "fsam_flush" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Fsam_core.Telemetry.flush_at_exit path;
      Obs.Span.with_ ~name:"partial-phase" (fun () -> Fsam_core.Telemetry.flush_now ());
      (match J.of_string (String.trim (read_file path)) with
      | Ok doc ->
        Alcotest.(check (option bool)) "schema" (Some true)
          (Option.map (J.equal (J.String "fsam.telemetry/1")) (J.member "schema" doc));
        Alcotest.(check (option bool)) "marked partial" (Some true)
          (Option.map (J.equal (J.Bool true)) (J.member "partial" doc));
        Alcotest.(check bool) "metrics present" true (J.member "metrics" doc <> None);
        (match J.member "spans" doc with
        | Some (J.List spans) ->
          Alcotest.(check bool) "open span exported" true
            (List.mem "partial-phase" (List.fold_left json_span_names [] spans))
        | _ -> Alcotest.fail "spans missing from partial document")
      | Error e -> Alcotest.failf "partial telemetry is not valid JSON: %s" e);
      Fsam_core.Telemetry.mark_flushed ();
      let oc = open_out path in
      output_string oc "sentinel";
      close_out oc;
      Fsam_core.Telemetry.flush_now ();
      Alcotest.(check string) "disarmed" "sentinel" (read_file path))

let test_json_non_finite () =
  (* non-finite floats must still yield valid JSON *)
  let s = J.to_string (J.List [ J.Float Float.nan; J.Float Float.infinity ]) in
  match J.of_string s with
  | Ok (J.List [ J.Null; J.Null ]) -> ()
  | Ok j -> Alcotest.failf "unexpected parse: %s" (J.to_string ~minify:true j)
  | Error e -> Alcotest.failf "invalid JSON emitted: %s" e

let test_trace_format () =
  Obs.Span.reset ();
  Obs.Span.with_ ~name:"root" (fun () -> Obs.Span.with_ ~name:"leaf" (fun () -> ()));
  let s = J.to_string (Obs.Trace.to_json (Obs.Span.roots ())) in
  match J.of_string s with
  | Error e -> Alcotest.failf "trace is not valid JSON: %s" e
  | Ok doc -> (
    match J.member "traceEvents" doc with
    | Some (J.List events) ->
      Alcotest.(check int) "one event per span" 2 (List.length events);
      List.iter
        (fun ev ->
          Alcotest.(check (option bool)) "complete event" (Some true)
            (Option.map (J.equal (J.String "X")) (J.member "ph" ev));
          List.iter
            (fun k ->
              Alcotest.(check bool) (k ^ " present") true (J.member k ev <> None))
            [ "name"; "ts"; "dur"; "pid"; "tid" ])
        events
    | _ -> Alcotest.fail "missing traceEvents array")

let pipeline_phases =
  [ "phase.pre"; "phase.threads"; "phase.mhp"; "phase.locks"; "phase.svfg"; "phase.solve" ]

let test_analyze_telemetry_golden () =
  let spec = Option.get (Fsam_workloads.Suite.find "word_count") in
  let m =
    Fsam_core.Measure.run (fun () ->
        Fsam_core.Driver.run (spec.Fsam_workloads.Suite.build 10))
  in
  let d = m.Fsam_core.Measure.value in
  let doc =
    Fsam_core.Telemetry.analysis_json ~program:"word_count" ~engine:"fsam" ~config:"full"
      ~wall_seconds:m.Fsam_core.Measure.wall_seconds
      ~cpu_seconds:m.Fsam_core.Measure.cpu_seconds ~live_mb:m.Fsam_core.Measure.live_mb
      ~report:(Fsam_core.Report.build d) ()
  in
  match J.of_string (J.to_string doc) with
  | Error e -> Alcotest.failf "telemetry is not valid JSON: %s" e
  | Ok parsed ->
    Alcotest.(check (option bool)) "schema" (Some true)
      (Option.map (J.equal (J.String "fsam.telemetry/1")) (J.member "schema" parsed));
    (* the full report is embedded *)
    (match J.member "report" parsed with
    | Some r ->
      List.iter
        (fun k -> Alcotest.(check bool) ("report." ^ k) true (J.member k r <> None))
        [ "program"; "pre_analysis"; "sparse_solve"; "clients"; "phase_seconds" ]
    | None -> Alcotest.fail "report missing");
    (* the metrics registry is populated *)
    (match J.member "metrics" parsed with
    | Some metrics -> (
      match J.member "counters" metrics with
      | Some (J.Obj counters) ->
        List.iter
          (fun k ->
            Alcotest.(check bool) ("counter " ^ k) true (List.mem_assoc k counters))
          [ "andersen.iterations"; "mhp.iterations"; "sparse.propagations" ]
      | _ -> Alcotest.fail "counters missing")
    | None -> Alcotest.fail "metrics missing");
    (* the span tree covers all six pipeline phases with >= 10 distinct names *)
    match J.member "spans" parsed with
    | Some (J.List spans) ->
      let names = List.sort_uniq compare (List.fold_left json_span_names [] spans) in
      Alcotest.(check bool)
        (Printf.sprintf "at least 10 distinct span names (got %d)" (List.length names))
        true
        (List.length names >= 10);
      List.iter
        (fun p -> Alcotest.(check bool) ("span " ^ p) true (List.mem p names))
        pipeline_phases
    | _ -> Alcotest.fail "spans missing"

(* A report's phase walls are the phase.* spans under its own run's root,
   whatever ran after it: the global span buffer then holds the later run. *)
let test_phase_walls_own_root () =
  let run name =
    let spec = Option.get (Fsam_workloads.Suite.find name) in
    Fsam_core.Driver.run (spec.Fsam_workloads.Suite.build 10)
  in
  let d1 = run "word_count" in
  let d2 = run "kmeans" in
  (match Obs.Span.roots () with
  | [ last ] ->
    Alcotest.(check bool) "the global buffer holds d2" true (last == d2.Fsam_core.Driver.root)
  | _ -> Alcotest.fail "expected one root span after d2");
  let phase_spans (d : Fsam_core.Driver.t) =
    List.filter_map
      (fun (c : Obs.Span.t) ->
        if List.mem c.Obs.Span.name pipeline_phases then Some c.Obs.Span.dur_s else None)
      d.Fsam_core.Driver.root.Obs.Span.children
  in
  let reported d =
    match J.member "phase_seconds" (Fsam_core.Report.to_json (Fsam_core.Report.build d)) with
    | Some (J.Obj kv) ->
      List.map (function _, J.Float f -> f | k, _ -> Alcotest.failf "%s not a float" k) kv
    | _ -> Alcotest.fail "phase_seconds missing"
  in
  Alcotest.(check int) "six phase spans under d1's root" 6 (List.length (phase_spans d1));
  Alcotest.(check (list (float 0.))) "d1's report reads d1's spans" (phase_spans d1) (reported d1);
  Alcotest.(check bool) "d1's walls are not d2's" true (reported d1 <> phase_spans d2)

let test_trace_file () =
  let spec = Option.get (Fsam_workloads.Suite.find "word_count") in
  ignore (Fsam_core.Driver.run (spec.Fsam_workloads.Suite.build 10));
  let path = Filename.temp_file "fsam_test" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Fsam_core.Telemetry.write_trace path;
      let ic = open_in_bin path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match J.of_string (String.trim s) with
      | Ok doc -> (
        match J.member "traceEvents" doc with
        | Some (J.List (_ :: _)) -> ()
        | _ -> Alcotest.fail "trace file has no events")
      | Error e -> Alcotest.failf "trace file is not valid JSON: %s" e)

let test_instrument_memoized () =
  let spec = Option.get (Fsam_workloads.Suite.find "word_count") in
  let d = Fsam_core.Driver.run (spec.Fsam_workloads.Suite.build 10) in
  let sets = Fsam_core.Instrument.instrumented_sets d in
  Alcotest.(check bool) "same table on repeated call" true
    (Fsam_core.Instrument.instrumented_sets d == sets);
  let r = Fsam_core.Instrument.analyze d in
  let kept = ref 0 in
  Fsam_ir.Prog.iter_stmts d.Fsam_core.Driver.prog (fun gid _ s ->
      match s with
      | Fsam_ir.Stmt.Load _ | Fsam_ir.Stmt.Store _ ->
        if Fsam_core.Instrument.must_instrument d gid then incr kept
      | _ -> ());
  Alcotest.(check int) "per-query API agrees with analyze" r.Fsam_core.Instrument.instrumented !kept

let suite =
  [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "span survives exceptions" `Quick test_span_exception;
    Alcotest.test_case "with_timed returns the span" `Quick test_span_timed;
    Alcotest.test_case "counter monotonicity" `Quick test_counters;
    Alcotest.test_case "gauges and histograms" `Quick test_gauges_histograms;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    qcheck_json_roundtrip;
    Alcotest.test_case "json non-finite floats" `Quick test_json_non_finite;
    Alcotest.test_case "span snapshot includes open stack" `Quick test_span_snapshot;
    Alcotest.test_case "trace crash flush" `Quick test_trace_crash_flush;
    Alcotest.test_case "telemetry crash flush" `Quick test_telemetry_crash_flush;
    Alcotest.test_case "chrome trace format" `Quick test_trace_format;
    Alcotest.test_case "analyze --json telemetry (golden)" `Quick test_analyze_telemetry_golden;
    Alcotest.test_case "phase walls survive later runs" `Quick test_phase_walls_own_root;
    Alcotest.test_case "trace file round-trip" `Quick test_trace_file;
    Alcotest.test_case "instrument sets memoized" `Quick test_instrument_memoized;
  ]
