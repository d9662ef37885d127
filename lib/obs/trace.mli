(** Chrome [trace_event] export: converts a span forest into the JSON
    object format ({["traceEvents": [...]]}) that [chrome://tracing] and
    {{:https://ui.perfetto.dev}Perfetto} open directly. Each span becomes a
    complete ("ph": "X") event on pid 1 / tid 1; timestamps are
    microseconds relative to the earliest root span. *)

val to_json : Span.t list -> Json.t

val write : string -> Span.t list -> unit
(** Write [to_json] of the forest to a file (minified). *)

val flush_at_exit : string -> unit
(** Arm the crash flush: when the process exits — normally, via [exit], or
    from an uncaught exception — the current [Span.snapshot] (completed
    spans plus the open stack) is written to the path, so an aborted run
    still leaves a usable partial Chrome trace. Re-arming replaces the
    path; the [at_exit] hook is installed once. Write failures at exit are
    swallowed. *)

val mark_flushed : unit -> unit
(** Disarm the crash flush — call after the normal export path has written
    its own (complete) trace, to avoid overwriting it with a snapshot. *)

val flush_now : unit -> unit
(** Run the armed flush immediately and disarm it (no-op when disarmed).
    Exposed for tests; this is exactly what the [at_exit] hook runs. *)

val armed : unit -> bool
(** Whether a crash flush is currently armed. A resident server arms around
    each analysis request and must observe [false] between requests, so a
    later crash cannot flush stale state from a request that completed. *)
