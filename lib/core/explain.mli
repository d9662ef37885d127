open Fsam_ir

(** Walks the derivations recorded by [Fsam_prov] into bounded,
    human-readable (and JSON) justification chains, and assembles the race
    witnesses shipped by [Report]/[Telemetry].

    Every query here is read-only over a finished {!Driver.t}; queries that
    need recorded provenance return [None] (or {!Unrecorded}) when the run
    was made with [config.provenance = false]. All output is deterministic
    because the recorder itself is. *)

(* Points-to derivation chains -------------------------------------------- *)

type site =
  | At_var of Stmt.var  (** top-level pt(v) in the sparse solution *)
  | At_mem of { node : int; cont : int }
      (** contents of container object [cont] at SVFG node [node] *)
  | At_avar of int  (** Andersen constraint-graph node *)

type step = {
  site : site;
  obj : int;  (** the fact: [obj] is in the points-to set at [site] *)
  tag : int;  (** [Fsam_prov] reason tag; [0] when unrecorded *)
  x : int;
  y : int;
  z : int;
}

val why_pt : ?max_depth:int -> Driver.t -> Stmt.var -> Stmt.obj -> step list option
(** Why does the sparse solution have [o] in pt(v)? The chain starts at the
    queried fact and walks backwards through copies, loads, SVFG edges and
    stores until a base event (address-of, field materialisation, fork
    theta) or [max_depth] (default 64). [None] when provenance is off or
    the fact does not hold. Observes the [prov.chain_len] and
    [prov.explain_cost_us] histograms. *)

val why_pt_andersen : ?max_depth:int -> Driver.t -> Stmt.var -> Stmt.obj -> step list option
(** Same question against the Andersen pre-analysis: the chain of inclusion
    edges (and cycle merges) that introduced the target. *)

val replay : Driver.t -> step list -> bool
(** Differential check: every step's fact holds in the final solution and
    every recorded base event matches the program text. The chain returned
    by {!why_pt} / {!why_pt_andersen} for a true fact must replay. *)

(* MHP justifications ----------------------------------------------------- *)

type mhp_reason =
  | Same_thread of int
      (** one multi-forked thread may run both statement instances *)
  | Ancestor_descendant of { anc : int; desc : int }
  | Sibling of { t1 : int; t2 : int }
      (** unordered siblings ([T-SIBLING] without happens-before) *)

type mhp_just = {
  j_gids : int * int;
  j_insts : int * int;  (** witness instance pair *)
  j_threads : int * int;
  j_reason : mhp_reason;
  j_chains : (int * int option) list * (int * int option) list;
      (** fork chains (thread, creating fork gid) from main for both sides *)
}

val why_mhp : Driver.t -> int -> int -> mhp_just option
(** Why may the two statement gids happen in parallel? [None] when they may
    not. Works without recorded provenance (the thread model is retained in
    full); deterministic via [Mhp.witness_pair]. *)

(* [THREAD-VF] edge verdicts ---------------------------------------------- *)

type edge_verdict =
  | Kept of { unprotected : bool; winsts : (int * int) option }
      (** edge added; [unprotected] marks the racy (no common lock) case *)
  | Filtered_lock of {
      insts : int * int;
      spans : int * int;
      store_not_tail : bool;
      load_not_head : bool;
    }  (** Definition 6 non-interference justified by the span pair *)
  | Skipped_mhp  (** the statements never happen in parallel *)
  | Unrecorded

val why_edge : Driver.t -> store:int -> obj:int -> access:int -> edge_verdict
(** Verdict recorded for the candidate [THREAD-VF] pair. *)

val store_update : Driver.t -> int -> [ `Strong of int | `Weak ] option
(** Final strong/weak verdict recorded for the store gid ([`Strong killed]
    carries the killed object). *)

(* Race witnesses --------------------------------------------------------- *)

type witness = {
  w_obj : int;
  w_store : int;
  w_access : int;
  w_both_writes : bool;
  w_insts : int * int;
  w_ctxs : int list * int list;  (** calling contexts (callsite gids) *)
  w_threads : int * int;
  w_mhp : mhp_just;
  w_locks : int list * int list;  (** held lock objects at each instance *)
  w_path : step list;  (** recorded value-flow path to the shared object *)
}

val witness : Driver.t -> Races.race -> witness option
(** Assemble the full witness for a detected race: the two accesses with
    contexts, the fork chain proving MHP, the held lock sets and the
    recorded value-flow path showing how the store reaches the object.
    [None] only when provenance is off. Observes [prov.witness_path_len]. *)

(* Rendering -------------------------------------------------------------- *)

val pp_chain : Driver.t -> Format.formatter -> step list -> unit
val chain_json : Driver.t -> step list -> Fsam_obs.Json.t
val pp_mhp : Driver.t -> Format.formatter -> mhp_just -> unit
val mhp_json : Driver.t -> mhp_just -> Fsam_obs.Json.t
val pp_edge_verdict : Driver.t -> Format.formatter -> edge_verdict -> unit
val edge_verdict_json : Driver.t -> edge_verdict -> Fsam_obs.Json.t
val pp_witness : Driver.t -> Format.formatter -> witness -> unit
val witness_json : Driver.t -> witness -> Fsam_obs.Json.t
