(** Metrics registries: named monotonic counters, gauges and power-of-two
    histograms.

    Handles are found-or-created by name, so hot loops pay a single table
    lookup up front and a field mutation per event. All operations default
    to the process-global registry; [Driver.run] calls [reset] on it at
    entry, so handles created {e before} a reset keep working but are no
    longer exported — producers should (re-)acquire their handles at the
    start of each run, which the pipeline does naturally by creating them
    inside the solver entry points. Long-lived components that must survive
    pipeline resets (the serve daemon) allocate their own registry with
    {!create_registry} and pass it via [?reg]. *)

type counter
type gauge
type histogram

type registry
(** A named-metric table. Not synchronized: each registry has a single
    owning writer (the global one belongs to the pipeline driver). *)

val create_registry : unit -> registry
(** A fresh registry, independent of the global one — never reset by
    [Driver.run]. *)

val global : registry
(** The process-global default registry every [?reg] falls back to. *)

val counter : ?reg:registry -> string -> counter
(** Find-or-create. Raises [Invalid_argument] if the name is registered as
    a different metric kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** [add] with a negative delta raises [Invalid_argument]: counters are
    monotonic by contract. *)

val counter_value : counter -> int

val gauge : ?reg:registry -> string -> gauge
val set : gauge -> int -> unit
val set_max : gauge -> int -> unit
(** [set_max g v] = [set g (max v (current value))] — peak tracking. *)

val gauge_value : gauge -> int

val histogram : ?reg:registry -> string -> histogram
val observe : histogram -> int -> unit
(** Buckets are powers of two: bucket [0] counts values [<= 0], bucket [2^k]
    counts values in [(2^(k-1), 2^k]]. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> int

val quantile : histogram -> float -> int
(** [quantile h q] for [q] in [\[0, 1\]]: the upper bound of the first
    bucket whose cumulative count reaches [q * count] — an upper-bound
    estimate within the bucket resolution (2x). 0 on an empty histogram. *)

val reset : ?reg:registry -> unit -> unit
(** Empty the registry. *)

val find_counter : ?reg:registry -> string -> int option
val find_gauge : ?reg:registry -> string -> int option
val find_histogram : ?reg:registry -> string -> histogram option

val histograms : ?reg:registry -> unit -> (string * histogram) list
(** Every histogram of the registry, sorted by name. *)

val to_json : ?reg:registry -> unit -> Json.t
(** [{ "counters": {..}, "gauges": {..}, "histograms": {name: { "count",
    "sum", "p50", "p95", "p99", "buckets": [{"le", "count"}, ...] }} }],
    names sorted; the pNN fields are {!quantile} summaries. *)

val to_prometheus : ?regs:registry list -> unit -> string
(** Prometheus text exposition (format 0.0.4): a [# TYPE] line per metric,
    names sanitized to [[a-zA-Z0-9_:]] (dots and dashes become
    underscores), histograms as cumulative [_bucket{le="..."}] series over
    the occupied power-of-two bounds plus [le="+Inf"], [_sum] and
    [_count]. With multiple registries the first occurrence of a sanitized
    name wins. *)
