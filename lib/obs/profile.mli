(** Deep-profiling state and derived views.

    Owns the sparse solver's convergence curve (periodic samples of
    worklist depth, facts-per-interval and union-memo hit rate) plus its
    stall warnings, and derives the span-hotspot view by {e exclusive}
    time. Enabled via {!set_enabled}; [Driver.run] resets and arms it from
    [config.profile], so profiling changes no analysis results — it only
    observes. Main-domain only, like the rest of the observability layer. *)

type sample = {
  s_prop : int;  (** solver propagations at sample time *)
  s_depth : int;  (** worklist depth *)
  s_facts : int;  (** cumulative points-to facts added *)
  s_facts_delta : int;  (** facts added since the previous sample *)
  s_memo_hits : int;  (** Iset union-memo hits in the interval *)
  s_memo_misses : int;
}

type stall = {
  st_prop : int;
  st_samples : int;  (** consecutive zero-progress samples *)
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Clear samples and stalls. *)

val add_sample : sample -> unit
val add_stall : stall -> unit
val set_sample_interval : int -> unit
val sample_interval : unit -> int
val samples : unit -> sample list
val stalls : unit -> stall list

(** {1 Span hotspots} *)

type hotspot = {
  hs_name : string;
  hs_count : int;
  hs_wall_s : float;  (** inclusive *)
  hs_self_wall_s : float;  (** exclusive: minus direct children *)
  hs_cpu_s : float;
  hs_self_cpu_s : float;
}

val hotspots : Span.t list -> hotspot list
(** Aggregated by name over the forest, sorted by self wall time
    descending (name ascending on ties). *)

(** {1 JSON} *)

val schema : string
val to_json : unit -> Json.t
(** The profile document: the convergence curve and its stalls. *)
