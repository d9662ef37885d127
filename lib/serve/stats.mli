(** Serve-side observability state: per-request latency histograms
    ([serve.req.<op>.latency_us]), byte/error counters, the flight
    recorder, the slow-query log and the Prometheus exposition.

    Lives in its own {!Fsam_obs.Metrics.registry} because [Driver.run]
    resets the process-global one on every pipeline run. Recording happens
    on the protocol thread; the [--stats-socket] scraper domain renders
    under the same mutex. Observational only: never touches analysis
    state. *)

type t

val create : ?flight_cap:int -> ?slow_ms:float -> ?slow_log:string -> unit -> t
(** [flight_cap] (default 256): flight-recorder ring size; [0] disables it.
    [slow_ms] (default 100.): requests strictly over the threshold emit an
    NDJSON [fsam.slow/1] line; negative disables the log. [slow_log]: file
    to append slow lines to (default [stderr]). Publishes the flight
    recorder via {!Fsam_obs.Flight.set_current} for the crash-flush
    path. *)

val close : t -> unit
(** Close an owned slow-log channel and unpublish the flight recorder. *)

val registry : t -> Fsam_obs.Metrics.registry
val flight : t -> Fsam_obs.Flight.t option
val uptime_s : t -> float
val slow_logged : t -> int
(** Slow-query lines emitted so far. *)

val note :
  t ->
  seq:int ->
  op:string ->
  us:int ->
  cpu_us:int ->
  ok:bool ->
  err:string option ->
  gen:int ->
  dirty:int ->
  bytes_in:int ->
  bytes_out:int ->
  req:Fsam_obs.Json.t ->
  phases:Fsam_obs.Json.t option ->
  unit
(** Record one completed request: histogram + counters, flight entry, and —
    when [us] exceeds the threshold — a slow-query line carrying the
    request parameters (program-sized payloads elided to byte lengths) and
    [phases] (an edit reply's phase breakdown) verbatim. *)

val op_totals : t -> (string * int * int) list
(** [(op, requests, summed wall us)] per op, sorted by op — the count and
    sum of each [serve.req.<op>.latency_us] histogram. *)

val rss_kb : unit -> int
(** Resident set size from [/proc/self/statm], in KiB; 0 where
    unavailable. *)

val refresh_process_gauges : t -> unit
(** Uptime, pid, RSS ([/proc/self/statm]), GC words/collections — safe
    from any domain. *)

val refresh_engine_gauges :
  t ->
  generation:int ->
  gen_age_us:int ->
  busy:bool ->
  iset_live:int ->
  unit
(** Engine-derived gauges (generation number/age, edits in flight, Iset
    intern-table live nodes). Protocol thread only —
    the scraper serves the last refreshed values. *)

val to_json : t -> Fsam_obs.Json.t
(** The serve registry as {!Fsam_obs.Metrics.to_json}. *)

val to_prometheus : ?extra_regs:Fsam_obs.Metrics.registry list -> t -> string
(** Refresh the process gauges, then render the serve registry (plus
    [extra_regs], e.g. the pipeline's global registry when no edit owns
    it) as Prometheus text exposition. Safe from the scraper domain with
    no [extra_regs]. *)
