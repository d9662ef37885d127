(** Per-domain event timelines for the parallel regions.

    A {!ring} is a fixed-width ring buffer of timestamped events
    [(t_us, kind, a, b)] — all ints, 4 per slot — written lock-free by
    exactly one domain. {!Fsam_par.run_chunks} creates one ring per worker
    lane when profiling is enabled, installs it as the lane domain's
    {e current} ring, and absorbs all rings after the join; analysis code inside chunks
    reports per-item progress through {!emit} without knowing which lane it
    runs on. Everything is a no-op while {!enabled} is [false]: the
    instrumentation points cost one atomic load each.

    Safety: one writer per ring; the reader is the calling domain {e after}
    [Domain.join], whose happens-before edge publishes the writes. The
    collected-ring list and [reset] are main-domain-only, like the rest of
    the observability layer. *)

type ring = {
  region : string;  (** parallel-region label, e.g. ["svfg.pairs"] *)
  lane : int;  (** chunk index; lane 0 is the calling domain *)
  cap : int;  (** slot capacity; older events are overwritten past it *)
  buf : int array;  (** 4 ints per slot: t_us, kind, a, b *)
  mutable n : int;  (** events ever recorded; [> cap] means wraparound *)
}

(** {1 Event kinds} *)

val k_chunk_start : int
(** a = lo, b = hi: the chunk's index range. *)

val k_chunk_stop : int
(** a = items processed, b = intern-table contention delta. *)

val k_item : int
(** a = item key (object id, store gid, ...), b = caller-defined counter. *)

val k_merge : int
(** a = joined lane, b = that lane's wall_us (recorded on lane 0). *)

val k_absorb : int
(** a = chunk index, b = units absorbed (serial apply/merge phases). *)

val k_contention : int
(** a = stripe contentions observed during the chunk, b = 0. *)

val kind_name : int -> string

(** {1 Profiling switch and clock} *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val epoch : unit -> float
(** Absolute [Unix.gettimeofday] of the last {!reset}; ring timestamps are
    microseconds since this instant. *)

val now_us : unit -> int
(** Microseconds since the last {!reset}, measured on the {!Monotonic}
    clock (never negative, immune to NTP steps). *)

(** {1 Rings} *)

val default_cap : int

val create_ring : ?cap:int -> region:string -> lane:int -> unit -> ring

val record : ring -> kind:int -> a:int -> b:int -> unit
(** Append one event (timestamped now); overwrites the oldest past [cap]. *)

val n_recorded : ring -> int
val n_events : ring -> int
val dropped : ring -> int

val events : ring -> (int * int * int * int) list
(** Retained events, oldest first (wraparound-aware). *)

val count_kind : ring -> int -> int

(** {1 Current ring (per domain)} *)

val set_current : ring option -> unit
val emit : kind:int -> a:int -> b:int -> unit
(** Record into the calling domain's current ring; no-op when profiling is
    off or no ring is installed. *)

(** {1 Collection (main domain)} *)

val absorb : ring -> unit
val collected : unit -> ring list
(** Absorbed rings sorted by (region, lane). *)

val reset : unit -> unit

val with_ring : ?cap:int -> region:string -> lane:int -> (unit -> 'a) -> 'a
(** Install a fresh ring around [f] in the calling domain, absorb it after;
    just runs [f] when profiling is off. *)

val ring_json : ring -> Json.t
val to_json : unit -> Json.t
