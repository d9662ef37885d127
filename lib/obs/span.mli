(** Hierarchical wall-clock + allocation spans.

    [with_ ~name f] runs [f] inside a span: nested calls build a tree, and
    each completed span records wall-clock duration, CPU time and the GC
    allocation deltas observed across it ([Gc.minor_words] for the minor
    heap — exact between collections — and [Gc.quick_stat] for the major
    heap; no forced collection, so the hot path stays cheap).

    Recording is process-global and single-threaded, matching the analysis
    pipeline. Completed top-level spans accumulate in [roots] until
    [reset]; [Driver.run] resets at entry so each analysis run owns the
    buffer. [reset] never touches spans that are still open: they complete
    normally and land in the fresh buffer. *)

type t = {
  name : string;
  start_s : float;
      (** wall-clock instant at entry, derived as a fixed process-wide wall
          epoch plus a monotonic offset — NTP steps between spans cannot
          reorder or skew starts *)
  dur_s : float;  (** wall-clock duration, seconds *)
  cpu_s : float;  (** [Sys.time] delta, seconds *)
  minor_words : float;  (** words allocated in the minor heap during the span *)
  major_words : float;  (** words allocated in the major heap during the span *)
  children : t list;  (** completed sub-spans, in execution order *)
}

val with_ : name:string -> (unit -> 'a) -> 'a
(** Run [f] in a span. The span is recorded even when [f] raises. *)

val with_timed : name:string -> (unit -> 'a) -> 'a * t
(** Like [with_], additionally returning the completed span record. *)

val reset : unit -> unit
(** Drop all completed root spans (open spans are unaffected). *)

val roots : unit -> t list
(** Completed top-level spans since the last [reset], in completion order. *)

val snapshot : unit -> t list
(** [roots ()] plus the currently open span stack rendered as one extra
    root whose durations are measured up to now (each open frame nests the
    next inner one after its completed children). Read-only — the open
    frames keep running. Used by the crash-flush paths to export partial
    traces when the process dies mid-analysis. *)

val count : t -> int
(** Number of spans in the tree, including the root. *)

val distinct_names : t list -> string list
(** Sorted de-duplicated span names over a forest. *)

val find : string -> t list -> t option
(** First span with the given name, depth-first over a forest. *)

val duration : string -> t -> float
(** [dur_s] of the first span named [name] in [root]'s tree (depth-first,
    [root] included); [0.] when the tree has none. *)

val to_json : t -> Json.t
