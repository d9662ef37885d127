(* Chrome trace_event export (chrome://tracing, Perfetto): the span tree,
   emitted on pid 1 / tid 1, with timestamps relative to the earliest root
   span. *)

let span_events ~t0 forest =
  let events = ref [] in
  let rec go sp =
    events :=
      Json.Obj
        [
          ("name", Json.String sp.Span.name);
          ("cat", Json.String "fsam");
          ("ph", Json.String "X");
          ("ts", Json.Float ((sp.Span.start_s -. t0) *. 1e6));
          ("dur", Json.Float (sp.Span.dur_s *. 1e6));
          ("pid", Json.Int 1);
          ("tid", Json.Int 1);
          ( "args",
            Json.Obj
              [
                ("cpu_s", Json.Float sp.Span.cpu_s);
                ("minor_words", Json.Float sp.Span.minor_words);
                ("major_words", Json.Float sp.Span.major_words);
              ] );
        ]
      :: !events;
    List.iter go sp.Span.children
  in
  List.iter go forest;
  List.rev !events

let to_json forest =
  let t0 =
    List.fold_left (fun acc sp -> Float.min acc sp.Span.start_s) Float.infinity forest
  in
  Json.Obj
    [
      ("traceEvents", Json.List (span_events ~t0 forest));
      ("displayTimeUnit", Json.String "ms");
    ]

let write path forest =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Json.to_channel ~minify:true oc (to_json forest))

(* Crash flush: once armed, process exit (normal return, uncaught exception,
   [exit]) writes whatever spans exist — including still-open ones via
   [Span.snapshot] — unless the normal export path disarmed it first. *)
let pending : string option ref = ref None
let registered = ref false

let flush_now () =
  match !pending with
  | None -> ()
  | Some path ->
    pending := None;
    (try write path (Span.snapshot ())
     with Sys_error _ -> ())

let flush_at_exit path =
  pending := Some path;
  if not !registered then begin
    registered := true;
    at_exit flush_now
  end

let mark_flushed () = pending := None
let armed () = Option.is_some !pending
