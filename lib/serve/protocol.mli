(** The NDJSON request/reply protocol of [fsam serve]. One JSON object per
    line; replies echo the request ["id"] and carry ["ok"], a monotonic
    server-assigned request id ["seq"], the per-request wall time ["us"]
    and cpu time ["cpu_us"], and either result fields or a structured
    [{"code", "message"}] error. Ops: [load], [points-to], [alias], [mhp],
    [races], [explain], [edit], [snapshot], [restore], [status], [metrics],
    [stats], [dump], [batch], [shutdown]. See docs/GUIDE.md for the full
    protocol. *)

type t

val create : ?crash_telemetry:string -> ?stats:Stats.t -> Engine.t -> t
(** [crash_telemetry], when given, is armed as a crash-flush target around
    each request and idempotently disarmed on reply
    ([Fsam_core.Telemetry.armed] is [false] between requests). [stats]
    defaults to [Stats.create ~slow_ms:(-1.) ()]: flight recorder on,
    slow-query log off, so an embedding program's stderr stays quiet.
    [fsam serve] passes its own stats with the log on. *)

val stats : t -> Stats.t

val handle_line : t -> string -> Fsam_obs.Json.t
(** Process one request line and return the reply document (exposed for the
    test suite; the serve loops below write it as minified NDJSON). *)

val serve_stdio : t -> unit
(** Serve requests from stdin to stdout until [shutdown] or EOF. *)

val serve_batch : t -> string -> unit
(** Serve the NDJSON requests in the given file, replies to stdout. *)

val serve_socket : t -> string -> unit
(** Listen on a Unix-domain socket at the given path, one client at a
    time, until a [shutdown] request. *)

val flight_dump_json : t -> Fsam_obs.Json.t
(** [{"schema": "fsam.flightdump/1", "flight": ...}] — the [dump] op's
    flight document, also what SIGUSR1 prints to stderr. *)

val install_sigusr1 : t -> unit
(** Dump the flight recorder to stderr on SIGUSR1 (no-op where the signal
    is unavailable). *)

type stats_server

val start_stats_socket : t -> string -> stats_server
(** Spawn a scraper domain listening on a Unix-domain socket: each
    connection receives one Prometheus text exposition of the serve
    registry and is closed. Raises [Unix.Unix_error] if the socket can't
    be bound. *)

val close_stats_socket : stats_server -> unit
(** Stop the scraper domain, close and unlink the socket. *)
