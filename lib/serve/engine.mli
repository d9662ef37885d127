(** The resident analysis engine behind [fsam serve]: holds one loaded
    program generation (source, AST, full {!Fsam_core.Driver} results and
    the captured singleton predicate) and implements the lifecycle around
    it — cold load, incremental edit (warm pre-phases + warm sparse solve,
    with optional differential cross-check), asynchronous edits with
    generation-pinned queries, snapshot and restore. *)

type t

type work = {
  wk_andersen_props : int;  (** Andersen worklist propagations *)
  wk_mhp_summaries : int;  (** MHP summary rows computed *)
  wk_svfg_pairs : int;  (** [THREAD-VF] pair candidates considered *)
  wk_sparse_props : int;  (** sparse solver propagations *)
}
(** Pre-phase + solve work actually performed by one pipeline run — the
    quantities the incremental machinery is meant to shrink. Phases reused
    verbatim contribute zero. *)

type load_info = {
  l_funcs : int;
  l_stmts : int;
  l_vars : int;
  l_objs : int;
  l_races : int;
  l_propagations : int;
  l_digest : string;  (** {!Fsam_memssa.Svfg.digest} of the resident run *)
  l_work : work;
}

type phase_summary = {
  ph_andersen_warm : bool;  (** Andersen re-solved only the affected closure *)
  ph_tm_reused : bool;  (** ICFG + thread model reused verbatim *)
  ph_mhp_reused : bool;
  ph_locks_reused : bool;
  ph_svfg_patched : bool;  (** SVFG patched in place of a cold rebuild *)
  ph_svfg_stats : Fsam_memssa.Svfg.patch_stats option;
  ph_run : Fsam_obs.Span.t;
      (** the warm run's [fsam.run] span ({!Fsam_core.Driver.root}): each
          phase's wall (whatever path it took) is read off it, with the
          solve's [solve.plan] (the incremental planner) and [solve.preload]
          (loading the clean slice) under [phase.solve] *)
}
(** Which pre-phases of a warm edit reused the previous generation, and
    the span tree of the run that did the edit. *)

type edit_info = {
  e_mode : [ `Incremental | `Cold ];
  e_reason : string option;
      (** why the sparse solve fell back to cold, when it did *)
  e_propagations : int;  (** solver propagations of the accepted run *)
  e_stats : Incremental.stats option;  (** incremental mode only *)
  e_phases : phase_summary option;  (** absent when the whole edit ran cold *)
  e_work : work;  (** work performed by the accepted (warm) run *)
  e_fallbacks : string list;
      (** fallback-counter keys this edit accrued (also accumulated into
          {!fallback_counts}) *)
  e_cold_propagations : int option;
      (** differential mode: propagations of the reference cold run *)
  e_cold_work : work option;  (** differential mode: the cold run's work *)
  e_identical : bool option;
      (** differential mode: incremental ≡ cold (Andersen + sparse
          points-to, memory facts, SVFG fingerprint, races) *)
}

val create : ?provenance:bool -> ?differential:bool -> unit -> t
(** [provenance] records derivations for [explain]. Each phase that
    records — Andersen, the SVFG, the sparse solve — then refuses its warm
    start on every edit and restore, counted under [andersen_provenance],
    [svfg_provenance] and [sparse_provenance]; the thread model, MHP and
    lock spans record nothing and are reused as usual. *)

val loaded : t -> bool

val busy : t -> bool
(** An asynchronous edit is in flight. Until {!edit_wait} installs its
    result, queries answer from the pinned previous generation and
    mutating operations are rejected. *)

val generation : t -> int
(** Monotonic generation number: bumped on every install (load, edit,
    restore); 0 until the first load. *)

val gen_age_us : t -> int
(** Microseconds since the resident generation was installed; 0 before the
    first load. *)

val driver : t -> Fsam_core.Driver.t
(** Raises [Invalid_argument] when nothing is loaded. *)

val source : t -> string
(** Current source text (pretty-printed after function-level edits). *)

val races : t -> Fsam_core.Races.race list
(** Race report of the resident generation, computed on first use and
    cached for the generation's lifetime. *)

val races_cached : t -> bool
(** Whether {!races} has already been forced for the resident generation,
    i.e. whether the next {!races} is a cached read. *)

val fallback_total : t -> int
(** Total cold fallbacks (any phase) across all edits of this engine. *)

val fallback_counts : t -> (string * int) list
(** Per-reason fallback counters, sorted by key — e.g.
    [("tm_sync_edit", 2)]. *)

val load : t -> string -> (load_info, string) result
(** Parse, lower and run the full pipeline cold; becomes the resident
    generation on success. *)

val edit_fn : t -> fn:string -> code:string -> (edit_info, string) result
(** Replace one function definition ([code] must contain exactly one
    definition of [fn]) and re-analyse incrementally: Andersen warm-starts
    from the affected closure, the thread model / MHP / lock analysis are
    reused verbatim when the edit provably left fork/join/lock structure
    unchanged, the SVFG is patched in place, and the sparse solve
    warm-starts from the old generation's clean slice. Every reuse is
    independently guarded; any guard failure runs that phase cold and is
    counted in {!fallback_counts}. [e_reason] reports sparse-solve
    fallbacks. *)

val edit_source : t -> string -> (edit_info, string) result
(** Replace the whole source; same incremental machinery (a program must
    already be loaded — use {!load} otherwise). *)

val edit_fn_async : t -> fn:string -> code:string -> (unit, string) result
(** Start {!edit_fn} in a spawned domain. The previous generation stays
    resident and answers queries until {!edit_wait}; only one edit may be
    in flight. *)

val edit_source_async : t -> string -> (unit, string) result

val edit_wait : t -> (edit_info, string) result
(** Join the in-flight asynchronous edit, install its generation and run a
    full major collection, so the replaced generation is reclaimed at
    once. [Error "no edit in flight"] when there is none. *)

val snapshot : t -> string -> (unit, string) result
(** Serialize the resident generation (source, AST, points-to facts as
    portable element lists — [Iset] hash-consing does not survive
    marshalling; memory facts keyed by SVFG node structure, not
    intern-order index) to the given path. *)

val restore : t -> string -> (load_info, string) result
(** Load a snapshot: re-lower (deterministic, so ids match), re-run the
    cold pre-phases — rebuilding every incremental index from scratch, so
    later warm edits never patch from marshalled structures — then
    warm-start the solve from the stored facts with {e every} unit
    seeded: a verification sweep. Rejects the snapshot if the sweep grows
    any fact ([Sparse.n_growth] ≠ 0) or the SVFG fingerprint drifted.
    Under [provenance] the solve runs cold ([sparse_provenance]) and only
    the fingerprint check applies. *)

val same_results : Fsam_core.Driver.t -> Fsam_core.Driver.t -> bool
(** Whether two completed runs of the same program agree byte for byte:
    Andersen points-to, sparse top-level sets, memory facts (keyed by SVFG
    node structure, so a patched graph matches a cold rebuild), the SVFG
    fingerprint and the race report. *)
