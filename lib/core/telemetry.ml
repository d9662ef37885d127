module Obs = Fsam_obs
module J = Obs.Json

let schema = "fsam.telemetry/1"

let spans_json () = J.List (List.map Obs.Span.to_json (Obs.Span.roots ()))

let analysis_json ~program ~engine ~config ~wall_seconds ~cpu_seconds ~live_mb ?report ()
    =
  J.Obj
    ([
       ("schema", J.String schema);
       ("program", J.String program);
       ("engine", J.String engine);
       ("config", J.String config);
       ( "measure",
         J.Obj
           [
             ("wall_seconds", J.Float wall_seconds);
             ("cpu_seconds", J.Float cpu_seconds);
             ("live_mb", J.Float live_mb);
           ] );
     ]
    @ (match report with Some r -> [ ("report", Report.to_json r) ] | None -> [])
    (* additive: the profile section appears only when profiling ran, so
       the profiling-off document shape is unchanged *)
    @ (if Obs.Profile.enabled () then [ ("profile", Obs.Profile.to_json ()) ] else [])
    @ [ ("metrics", Obs.Metrics.to_json ()); ("spans", spans_json ()) ])

let races_json d races =
  (* The provenance-off shape (plain strings) is kept byte-identical; with
     provenance on, each entry becomes an object carrying the full witness. *)
  let race_json r =
    let text = J.String (Format.asprintf "%a" (Races.pp_race d) r) in
    match Explain.witness d r with
    | None -> text
    | Some w -> J.Obj [ ("text", text); ("witness", Explain.witness_json d w) ]
  in
  J.Obj
    [
      ("schema", J.String schema);
      ("engine", J.String "fsam");
      ("n_races", J.Int (List.length races));
      ("races", J.List (List.map race_json races));
      ("metrics", Obs.Metrics.to_json ());
      ("spans", spans_json ());
    ]

let write_json path j =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> J.to_channel oc j)

let write_trace path =
  Obs.Trace.write path (Obs.Span.roots ())

(* Crash flush mirroring [Obs.Trace.flush_at_exit]: an aborted run still
   leaves a telemetry document marked ["partial"] with whatever metrics and
   (possibly still-open) spans existed at death. *)
let pending : string option ref = ref None
let registered = ref false

let flush_now () =
  match !pending with
  | None -> ()
  | Some path ->
    pending := None;
    let doc =
      J.Obj
        ([
           ("schema", J.String schema);
           ("partial", J.Bool true);
           ("metrics", Obs.Metrics.to_json ());
           ("spans", J.List (List.map Obs.Span.to_json (Obs.Span.snapshot ())));
         ]
        (* a crashing daemon leaves its last-N requests on disk, not just
           the partial trace *)
        @
        match Obs.Flight.current () with
        | Some f when Obs.Flight.recorded f > 0 -> [ ("flight", Obs.Flight.to_json f) ]
        | _ -> [])
    in
    (try write_json path doc with Sys_error _ -> ())

let flush_at_exit path =
  pending := Some path;
  if not !registered then begin
    registered := true;
    at_exit flush_now
  end

let mark_flushed () = pending := None
let armed () = Option.is_some !pending
