(* Request-level observability: the flight-recorder ring (wraparound,
   ordering under async edits, no torn entries), the slow-query threshold
   boundary, the Prometheus exposition against a strict line-format
   checker, byte-identity of analysis results with observability on vs
   off, the crash-flush flight tail, and the fsam.top/1 document
   round-trip. *)

module J = Fsam_obs.Json
module Flight = Fsam_obs.Flight
module Metrics = Fsam_obs.Metrics
module Engine = Fsam_serve.Engine
module Protocol = Fsam_serve.Protocol
module Stats = Fsam_serve.Stats
module Topview = Fsam_serve.Topview

let tiny_source =
  "int g;\nvoid writer(int *p) { *p = 1; }\nint main() { int *q; q = &g; writer(q); \
   *q = 2; return 0; }\n"

let req srv fields = Protocol.handle_line srv (J.to_string ~minify:true (J.Obj fields))
let is_ok r = J.member "ok" r = Some (J.Bool true)

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "fsam_test_%s_%d" name (Unix.getpid ()))

(* -- ring -------------------------------------------------------------------- *)

let test_ring_wraparound () =
  let f = Flight.create ~cap:4 () in
  for i = 1 to 10 do
    Flight.note f ~seq:i ~op:(Printf.sprintf "op%d" (i mod 3)) ~us:(i * 10) ~cpu_us:i
      ~ok:(i mod 2 = 0)
      ?err:(if i mod 2 = 0 then None else Some "some_error")
      ~gen:i ~dirty:(-1) ~bytes_in:i ~bytes_out:(2 * i) ()
  done;
  Alcotest.(check int) "recorded" 10 (Flight.recorded f);
  Alcotest.(check int) "dropped" 6 (Flight.dropped f);
  let es = Flight.entries f in
  Alcotest.(check (list int)) "live window is the last cap entries, oldest first"
    [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Flight.f_seq) es);
  List.iter
    (fun e ->
      let i = e.Flight.f_seq in
      Alcotest.(check int) "us intact" (i * 10) e.Flight.f_us;
      Alcotest.(check bool) "ok intact" (i mod 2 = 0) e.Flight.f_ok;
      Alcotest.(check (option string)) "err intact"
        (if i mod 2 = 0 then None else Some "some_error")
        e.Flight.f_err;
      Alcotest.(check int) "bytes intact" (2 * i) e.Flight.f_bytes_out)
    es;
  (* json shape *)
  match Flight.to_json f with
  | J.Obj kvs ->
    Alcotest.(check bool) "cap exported" true (List.assoc "cap" kvs = J.Int 4);
    (match List.assoc "entries" kvs with
    | J.List l -> Alcotest.(check int) "4 entries" 4 (List.length l)
    | _ -> Alcotest.fail "entries not a list")
  | _ -> Alcotest.fail "to_json not an object"

(* Request ids strictly increasing and entries complete while an async edit
   runs concurrently with queries; an uncached race report requested
   mid-edit answers from the pinned generation. *)
let racy_source =
  "int g;\nvoid writer(int *p) { *p = 1; }\nint main() { int *q; q = &g; \
   fork(null, writer, q); *q = 2; return 0; }\n"

let test_ordering_async_edit () =
  let stats = Stats.create ~flight_cap:8 ~slow_ms:(-1.0) () in
  let eng = Engine.create () in
  let srv = Protocol.create ~stats eng in
  let ok_or_fail what r = if not (is_ok r) then Alcotest.failf "%s failed" what in
  ok_or_fail "load"
    (req srv [ ("id", J.Int 1); ("op", J.String "load"); ("source", J.String racy_source) ]);
  let pinned = Fsam_core.Races.detect (Engine.driver eng) in
  Alcotest.(check bool) "pinned generation races" true (pinned <> []);
  ok_or_fail "async edit"
    (req srv
       [
         ("id", J.Int 2);
         ("op", J.String "edit");
         ("async", J.Bool true);
         ("fn", J.String "writer");
         ("code", J.String "void writer(int *p) { *p = 3; }");
       ]);
  (* queries interleave with the in-flight edit *)
  let races_reply = req srv [ ("id", J.Int 3); ("op", J.String "races") ] in
  ok_or_fail "races during async edit" races_reply;
  let triple r =
    match (J.member "store" r, J.member "access" r, J.member "obj" r) with
    | Some (J.Int s), Some (J.Int a), Some (J.Int o) -> (s, a, o)
    | _ -> Alcotest.fail "malformed race entry"
  in
  Alcotest.(check (list (triple int int int)))
    "races report is the pinned generation's"
    (List.map
       (fun (r : Fsam_core.Races.race) ->
         Fsam_core.Races.(r.store_gid, r.access_gid, r.obj))
       pinned)
    (match J.member "races" races_reply with
    | Some (J.List rs) -> List.map triple rs
    | _ -> Alcotest.fail "races reply without a races list");
  for i = 4 to 6 do
    ok_or_fail "pinned query"
      (req srv [ ("id", J.Int i); ("op", J.String "points-to"); ("var", J.String "q") ])
  done;
  let wait_reply = req srv [ ("id", J.Int 7); ("op", J.String "edit-wait") ] in
  ok_or_fail "edit-wait" wait_reply;
  let f = match Stats.flight stats with Some f -> f | None -> Alcotest.fail "no flight" in
  let es = Flight.entries f in
  Alcotest.(check int) "all 7 requests journaled" 7 (List.length es);
  let seqs = List.map (fun e -> e.Flight.f_seq) es in
  Alcotest.(check (list int)) "seq strictly increasing" [ 1; 2; 3; 4; 5; 6; 7 ] seqs;
  List.iter
    (fun e ->
      Alcotest.(check bool) "op present" true (String.length e.Flight.f_op > 0);
      Alcotest.(check bool) "latency non-negative" true (e.Flight.f_us >= 0);
      Alcotest.(check bool) "generation positive" true (e.Flight.f_gen >= 1);
      Alcotest.(check bool) "reply bytes recorded" true (e.Flight.f_bytes_out > 0))
    es;
  (* the edit-wait entry carries the edit's dirty-function count (or -1 if
     the engine fell back to a cold run and reported none) *)
  let expected_dirty =
    match J.member "incremental" wait_reply with
    | Some inc -> (
      match J.member "changed_funcs" inc with Some (J.Int n) -> n | _ -> -1)
    | None -> -1
  in
  let last = List.nth es 6 in
  Alcotest.(check string) "last is edit-wait" "edit-wait" last.Flight.f_op;
  Alcotest.(check int) "dirty-fn count surfaced" expected_dirty last.Flight.f_dirty;
  Stats.close stats

(* -- slow-query log ---------------------------------------------------------- *)

let test_slow_threshold_boundary () =
  let path = tmp_path "slow" in
  (try Sys.remove path with Sys_error _ -> ());
  let stats = Stats.create ~flight_cap:0 ~slow_ms:1.0 ~slow_log:path () in
  let note us =
    Stats.note stats ~seq:1 ~op:"points-to" ~us ~cpu_us:us ~ok:true ~err:None ~gen:1
      ~dirty:(-1) ~bytes_in:10 ~bytes_out:20
      ~req:(J.Obj [ ("op", J.String "points-to"); ("var", J.String "q") ])
      ~phases:None
  in
  note 999;
  note 1000;
  (* exactly at the threshold: not "over" *)
  Alcotest.(check int) "at-threshold not logged" 0 (Stats.slow_logged stats);
  note 1001;
  Alcotest.(check int) "over threshold logged" 1 (Stats.slow_logged stats);
  Stats.close stats;
  (* a protocol embedded without its own stats keeps the log off *)
  let quiet = Protocol.stats (Protocol.create (Engine.create ())) in
  Stats.note quiet ~seq:1 ~op:"edit" ~us:10_000_000 ~cpu_us:0 ~ok:true ~err:None ~gen:1
    ~dirty:(-1) ~bytes_in:10 ~bytes_out:20 ~req:(J.Obj []) ~phases:None;
  Alcotest.(check int) "embedded default logs nothing" 0 (Stats.slow_logged quiet);
  Stats.close quiet;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  match J.of_string line with
  | Error e -> Alcotest.failf "slow line is not JSON: %s" e
  | Ok doc ->
    Alcotest.(check bool) "schema" true
      (J.member "schema" doc = Some (J.String "fsam.slow/1"));
    Alcotest.(check bool) "us" true (J.member "us" doc = Some (J.Int 1001));
    Alcotest.(check bool) "op" true (J.member "op" doc = Some (J.String "points-to"));
    (* params ride along, minus op/id *)
    (match J.member "params" doc with
    | Some p -> Alcotest.(check bool) "params.var" true (J.member "var" p = Some (J.String "q"))
    | None -> Alcotest.fail "no params")

(* A slow load's program payload is elided, not journaled verbatim. *)
let test_slow_redaction () =
  let path = tmp_path "slow_redact" in
  (try Sys.remove path with Sys_error _ -> ());
  let stats = Stats.create ~flight_cap:0 ~slow_ms:0.0 ~slow_log:path () in
  Stats.note stats ~seq:1 ~op:"load" ~us:5000 ~cpu_us:5000 ~ok:true ~err:None ~gen:1
    ~dirty:(-1) ~bytes_in:0 ~bytes_out:0
    ~req:(J.Obj [ ("op", J.String "load"); ("source", J.String (String.make 4096 'x')) ])
    ~phases:None;
  Stats.close stats;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "line stays small" true (String.length line < 1024);
  match J.of_string line with
  | Ok doc -> (
    match J.member "params" doc with
    | Some p -> (
      match J.member "source" p with
      | Some s ->
        Alcotest.(check bool) "source elided to length" true
          (J.member "elided_bytes" s = Some (J.Int 4096))
      | None -> Alcotest.fail "source param missing")
    | None -> Alcotest.fail "params missing")
  | Error e -> Alcotest.failf "bad slow line: %s" e

(* -- prometheus exposition --------------------------------------------------- *)

(* Strict line-format checker for the subset of the Prometheus text format
   we emit: TYPE comments, [name value] samples, [name{le="..."} value]
   histogram buckets; names match [a-zA-Z_:][a-zA-Z0-9_:]*; every histogram
   has non-decreasing cumulative buckets, a +Inf bucket equal to _count,
   and _sum/_count samples. Returns the list of violations. *)
let check_prometheus text =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let name_ok s =
    s <> ""
    && (let c = s.[0] in (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':')
    && String.for_all
         (fun c ->
           (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
           || c = '_' || c = ':')
         s
  in
  let buckets = Hashtbl.create 16 (* base name -> (le, cum) list, in order *) in
  let samples = Hashtbl.create 16 (* sample name -> value *) in
  let typed = Hashtbl.create 16 in
  List.iter
    (fun line ->
      if line = "" then ()
      else if String.length line > 6 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | [ _; _; name; kind ] ->
          if not (name_ok name) then err "bad TYPE name %S" name;
          if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
            err "bad TYPE kind %S" kind;
          Hashtbl.replace typed name kind
        | _ -> err "malformed TYPE line %S" line
      end
      else if String.length line > 0 && line.[0] = '#' then ()
      else
        match String.index_opt line ' ' with
        | None -> err "sample without value: %S" line
        | Some sp -> (
          let lhs = String.sub line 0 sp in
          let value = String.sub line (sp + 1) (String.length line - sp - 1) in
          let v =
            match float_of_string_opt value with
            | Some v -> v
            | None ->
              err "non-numeric value %S in %S" value line;
              nan
          in
          match String.index_opt lhs '{' with
          | None ->
            if not (name_ok lhs) then err "bad sample name %S" lhs;
            Hashtbl.replace samples lhs v
          | Some lb ->
            let name = String.sub lhs 0 lb in
            let labels = String.sub lhs lb (String.length lhs - lb) in
            if not (name_ok name) then err "bad sample name %S" name;
            let is_bucket =
              String.length name > 7
              && String.sub name (String.length name - 7) 7 = "_bucket"
            in
            if not is_bucket then err "labels on non-bucket sample %S" lhs
            else begin
              let base = String.sub name 0 (String.length name - 7) in
              let le =
                if String.length labels > 6 && String.sub labels 0 5 = "{le=\""
                   && labels.[String.length labels - 2] = '"'
                   && labels.[String.length labels - 1] = '}'
                then Some (String.sub labels 5 (String.length labels - 7))
                else None
              in
              match le with
              | None -> err "bucket without le label: %S" lhs
              | Some le ->
                let prev = try Hashtbl.find buckets base with Not_found -> [] in
                Hashtbl.replace buckets base (prev @ [ (le, v) ])
            end))
    (String.split_on_char '\n' text);
  Hashtbl.iter
    (fun base bs ->
      (match Hashtbl.find_opt typed base with
      | Some "histogram" -> ()
      | _ -> err "histogram %s has buckets but no histogram TYPE" base);
      let cum = List.map snd bs in
      if not (List.for_all2 (fun a b -> a <= b) cum (List.tl cum @ [ infinity ])) then
        err "%s buckets not cumulative" base;
      (match List.rev bs with
      | ("+Inf", v) :: _ -> (
        match Hashtbl.find_opt samples (base ^ "_count") with
        | Some c when c = v -> ()
        | Some c -> err "%s +Inf bucket %f <> count %f" base v c
        | None -> err "%s missing _count" base)
      | _ -> err "%s last bucket is not +Inf" base);
      if Hashtbl.find_opt samples (base ^ "_sum") = None then err "%s missing _sum" base)
    buckets;
  List.rev !errs

let test_prometheus_format () =
  let reg = Metrics.create_registry () in
  Metrics.add (Metrics.counter ~reg "serve.requests_total") 17;
  Metrics.set (Metrics.gauge ~reg "serve.rss_kb") 12345;
  let h = Metrics.histogram ~reg "serve.req.points-to.latency_us" in
  List.iter (Metrics.observe h) [ 0; 1; 3; 900; 70_000; 70_001; 1_000_000 ];
  let text = Metrics.to_prometheus ~regs:[ reg ] () in
  Alcotest.(check (list string)) "checker clean" [] (check_prometheus text);
  (* dashed/dotted names sanitize, exposition carries exact count/sum *)
  Alcotest.(check bool) "sanitized histogram name" true
    (List.exists
       (fun l -> l = "serve_req_points_to_latency_us_count 7")
       (String.split_on_char '\n' text));
  Alcotest.(check bool) "sum exact" true
    (List.exists
       (fun l -> l = Printf.sprintf "serve_req_points_to_latency_us_sum %d" 1_140_905)
       (String.split_on_char '\n' text));
  (* the checker itself rejects malformed text *)
  Alcotest.(check bool) "checker catches bad name" true
    (check_prometheus "# TYPE 9bad counter\n9bad 1\n" <> []);
  Alcotest.(check bool) "checker catches missing +Inf" true
    (check_prometheus
       "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"
    <> [])

(* -- observability on/off byte-identity --------------------------------------- *)

let strip_volatile r =
  match r with
  | J.Obj kvs ->
    J.Obj
      (List.filter
         (fun (k, _) -> not (List.mem k [ "us"; "cpu_us"; "seq"; "uptime_s"; "rss_kb" ]))
         kvs)
  | j -> j

let test_on_off_identity () =
  let slow = tmp_path "slow_onoff" in
  let mk ~obs =
    let stats =
      if obs then Stats.create ~flight_cap:16 ~slow_ms:0.0 ~slow_log:slow ()
      else Stats.create ~flight_cap:0 ~slow_ms:(-1.0) ()
    in
    (Protocol.create ~stats (Engine.create ()), stats)
  in
  let script srv =
    [
      req srv [ ("id", J.Int 1); ("op", J.String "load"); ("source", J.String tiny_source) ];
      req srv [ ("id", J.Int 2); ("op", J.String "points-to"); ("var", J.String "q") ];
      req srv
        [
          ("id", J.Int 3);
          ("op", J.String "alias");
          ("a", J.String "q");
          ("b", J.String "p");
        ];
      req srv [ ("id", J.Int 4); ("op", J.String "races") ];
      req srv
        [
          ("id", J.Int 5);
          ("op", J.String "edit");
          ("fn", J.String "writer");
          ("code", J.String "void writer(int *p) { *p = 7; }");
        ];
      req srv [ ("id", J.Int 6); ("op", J.String "points-to"); ("var", J.String "q") ];
    ]
  in
  let on_srv, on_stats = mk ~obs:true in
  let off_srv, off_stats = mk ~obs:false in
  let on = script on_srv and off = script off_srv in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "reply %d identical modulo timing" (i + 1))
        true
        (J.equal (strip_volatile a) (strip_volatile b)))
    (List.combine on off);
  (* the observability-on run actually observed *)
  (match Metrics.find_histogram ~reg:(Stats.registry on_stats) "serve.req.points-to.latency_us" with
  | Some h -> Alcotest.(check int) "histogram counted" 2 (Metrics.histogram_count h)
  | None -> Alcotest.fail "points-to histogram missing");
  Alcotest.(check bool) "slow lines written" true (Stats.slow_logged on_stats > 0);
  (* and the off run kept nothing *)
  Alcotest.(check bool) "off: no flight" true (Stats.flight off_stats = None);
  Alcotest.(check int) "off: no slow lines" 0 (Stats.slow_logged off_stats);
  Stats.close on_stats;
  Stats.close off_stats;
  try Sys.remove slow with Sys_error _ -> ()

(* -- status health fields / stats & dump ops ---------------------------------- *)

let test_status_health_fields () =
  let stats = Stats.create ~flight_cap:4 ~slow_ms:(-1.0) () in
  let srv = Protocol.create ~stats (Engine.create ()) in
  ignore (req srv [ ("id", J.Int 1); ("op", J.String "load"); ("source", J.String tiny_source) ]);
  let r = req srv [ ("id", J.Int 2); ("op", J.String "status") ] in
  Alcotest.(check bool) "ok" true (is_ok r);
  Alcotest.(check bool) "pid" true (J.member "pid" r = Some (J.Int (Unix.getpid ())));
  (match J.member "uptime_s" r with
  | Some (J.Float u) -> Alcotest.(check bool) "uptime sane" true (u >= 0.0 && u < 3600.0)
  | _ -> Alcotest.fail "uptime_s missing");
  Alcotest.(check bool) "generation" true (J.member "generation" r = Some (J.Int 1));
  (match J.member "generation_age_s" r with
  | Some (J.Float a) -> Alcotest.(check bool) "gen age sane" true (a >= 0.0)
  | _ -> Alcotest.fail "generation_age_s missing");
  (match J.member "rss_kb" r with
  | Some (J.Int _) -> ()
  | _ -> Alcotest.fail "rss_kb missing");
  (* seq echo: monotonically assigned, echoed on every reply *)
  (match J.member "seq" r with
  | Some (J.Int 2) -> ()
  | _ -> Alcotest.fail "seq not echoed");
  (* stats op: valid exposition + serve histograms *)
  let r = req srv [ ("id", J.Int 3); ("op", J.String "stats") ] in
  Alcotest.(check bool) "stats ok" true (is_ok r);
  (match J.member "prometheus" r with
  | Some (J.String text) ->
    Alcotest.(check (list string)) "scrape passes checker" [] (check_prometheus text)
  | _ -> Alcotest.fail "no prometheus text");
  (* dump op: the journaled tail covers the requests completed so far (the
     dump's own entry lands after its reply is built, so 3 not 4) *)
  let r = req srv [ ("id", J.Int 4); ("op", J.String "dump") ] in
  (match J.member "flight" r with
  | Some fj -> (
    match J.member "entries" fj with
    | Some (J.List es) -> Alcotest.(check int) "prior requests journaled" 3 (List.length es)
    | _ -> Alcotest.fail "no entries")
  | None -> Alcotest.fail "no flight in dump");
  Stats.close stats

(* -- crash flush includes the flight tail ------------------------------------- *)

let test_crash_flush_flight_tail () =
  let module T = Fsam_core.Telemetry in
  let path = tmp_path "crash" in
  (try Sys.remove path with Sys_error _ -> ());
  let f = Flight.create ~cap:4 () in
  Flight.note f ~seq:41 ~op:"points-to" ~us:12 ~cpu_us:11 ~ok:true ~gen:3 ~dirty:(-1)
    ~bytes_in:30 ~bytes_out:90 ();
  Flight.set_current (Some f);
  T.flush_at_exit path;
  T.flush_now ();
  Flight.set_current None;
  Alcotest.(check bool) "disarmed after flush" false (T.armed ());
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Sys.remove path;
  match J.of_string text with
  | Error e -> Alcotest.failf "crash doc unparsable: %s" e
  | Ok doc -> (
    Alcotest.(check bool) "partial" true (J.member "partial" doc = Some (J.Bool true));
    match J.member "flight" doc with
    | Some fj -> (
      match J.member "entries" fj with
      | Some (J.List [ e ]) ->
        Alcotest.(check bool) "tail entry survived" true
          (J.member "seq" e = Some (J.Int 41))
      | _ -> Alcotest.fail "flight entries wrong shape")
    | None -> Alcotest.fail "crash doc lacks flight tail")

(* -- fsam.top/1 --------------------------------------------------------------- *)

let test_top_roundtrip () =
  let stats = Stats.create ~flight_cap:4 ~slow_ms:(-1.0) () in
  let srv = Protocol.create ~stats (Engine.create ()) in
  ignore (req srv [ ("id", J.Int 1); ("op", J.String "load"); ("source", J.String tiny_source) ]);
  ignore (req srv [ ("id", J.Int 2); ("op", J.String "points-to"); ("var", J.String "q") ]);
  let status = req srv [ ("id", J.Int 3); ("op", J.String "status") ] in
  let stats_r = req srv [ ("id", J.Int 4); ("op", J.String "stats") ] in
  let doc = Topview.doc_of ~now:1000.0 ~status ~stats:stats_r () in
  (* schema round-trip: emit, reparse, structurally equal. JSON has one
     number type, so a whole-valued Float reparses as Int — compare
     numbers by value. *)
  let rec num_equal a b =
    match (a, b) with
    | J.Int x, J.Float y | J.Float y, J.Int x -> float_of_int x = y
    | J.List x, J.List y ->
      (try List.for_all2 num_equal x y with Invalid_argument _ -> false)
    | J.Obj x, J.Obj y ->
      (try List.for_all2 (fun (k, v) (k', v') -> k = k' && num_equal v v') x y
       with Invalid_argument _ -> false)
    | _ -> J.equal a b
  in
  (match J.of_string (J.to_string ~minify:true doc) with
  | Ok doc' -> Alcotest.(check bool) "roundtrip equal" true (num_equal doc doc')
  | Error e -> Alcotest.failf "doc does not reparse: %s" e);
  Alcotest.(check bool) "schema tag" true
    (J.member "schema" doc = Some (J.String Topview.schema));
  (* rate math across two polls *)
  let doc2 =
    Topview.doc_of ~now:1002.0 ~prev:(Topview.prev_of doc) ~status:
      (req srv [ ("id", J.Int 5); ("op", J.String "status") ])
      ~stats:stats_r ()
  in
  (match J.member "requests_per_s" doc2 with
  | Some (J.Float r) -> Alcotest.(check bool) "rate positive" true (r > 0.0)
  | _ -> Alcotest.fail "no rate");
  (* the renderer shows the per-op latency table *)
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let text = Topview.render doc in
  Alcotest.(check bool) "render mentions points-to" true (contains text "points-to");
  Stats.close stats

let suite =
  [
    Alcotest.test_case "ring-wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "ordering-under-async-edit" `Quick test_ordering_async_edit;
    Alcotest.test_case "slow-threshold-boundary" `Quick test_slow_threshold_boundary;
    Alcotest.test_case "slow-redaction" `Quick test_slow_redaction;
    Alcotest.test_case "prometheus-format" `Quick test_prometheus_format;
    Alcotest.test_case "obs-on-off-identity" `Quick test_on_off_identity;
    Alcotest.test_case "status-health-fields" `Quick test_status_health_fields;
    Alcotest.test_case "crash-flush-flight-tail" `Quick test_crash_flush_flight_tail;
    Alcotest.test_case "top-roundtrip" `Quick test_top_roundtrip;
  ]
