open Fsam_ir

(** End-to-end FSAM driver (the pipeline of paper Figure 2): pre-analysis →
    thread-oblivious def-use → interleaving analysis → value-flow analysis →
    lock analysis → sparse flow-sensitive solve. *)

type config = {
  svfg : Fsam_memssa.Svfg.config;
  max_ctx_depth : int;
  nonsparse_budget : float;  (** seconds before NonSparse reports OOT *)
  jobs : int;
      (** domain count for the parallelisable passes (MHP sibling seeding
          and the SVFG's [THREAD-VF] pair discovery here; the CLI also
          hands it to the post-solve clients). [1] (the default) is the
          exact serial path; [0] means [Fsam_par.available_jobs ()].
          Results are identical for every value. *)
  provenance : bool;
      (** record derivation reasons for every points-to fact, SVFG edge and
          [THREAD-VF] pair verdict (see [Fsam_prov] and [Explain]). Default
          [false]; analysis results are byte-identical either way (including
          under [jobs]), and the disabled hot paths allocate nothing. *)
  profile : bool;
      (** enable the execution profiler: per-domain [Fsam_obs.Timeline]
          rings in the parallel regions, the [Sparse] convergence monitor,
          and per-domain gauges (see [Fsam_obs.Profile]). Default [false];
          purely observational — analysis results are byte-identical with
          it on or off, and the disabled path costs one atomic load per
          probe site. *)
}

val default_config : config
val no_interleaving : config  (** paper §4.3 configuration (1) *)

val no_value_flow : config  (** configuration (2) *)

val no_lock : config  (** configuration (3) *)

type phase_times = {
  t_pre : float;  (** Andersen + mod/ref *)
  t_thread_model : float;  (** ICFG + thread model *)
  t_interleaving : float;  (** MHP analysis *)
  t_lock : float;  (** lock-span analysis *)
  t_svfg : float;  (** def-use construction incl. value-flow phase *)
  t_solve : float;  (** singleton detection + sparse solve *)
}
(** Per-phase {e wall-clock} seconds (historically these were [Sys.time]
    CPU seconds). Each field is the duration of the matching [phase.*]
    span; the full span tree — with CPU time and allocation deltas — is
    available from [Fsam_obs.Span.roots] after [run] returns, and the
    benchmark harness reports CPU time separately via [Measure]. *)

type t = {
  prog : Prog.t;
  ast : Fsam_andersen.Solver.t;
  modref : Fsam_andersen.Modref.t;
  icfg : Fsam_mta.Icfg.t;
  tm : Fsam_mta.Threads.t;
  mhp : Fsam_mta.Mhp.t;
  locks : Fsam_mta.Locks.t;
  pcg : Fsam_mta.Pcg.t;
  svfg : Fsam_memssa.Svfg.t;
  singleton : int -> bool;
      (** the strong-update singleton predicate the solve used — an input
          to the next edit's incremental plan *)
  sparse : Sparse.t;
  times : phase_times;
  prov : Fsam_prov.t option;
      (** the derivation recorder — [Some] iff [config.provenance] *)
}

(** Per-phase warm-start hooks for the serve engine's incremental edit
    path and snapshot restore: each pre-phase hook may produce its phase's
    result from the previous generation ([None] = run the phase cold).
    [wh_solve] runs after singleton detection and may return a
    [Sparse.warm] start for the final solve ([None] = drain cold from every
    statement); the solve reaches the same least fixpoint either way as
    long as the warm start meets [Sparse.warm]'s soundness requirement.
    Hooks execute inside the phase spans, so phase walls reflect the path
    actually taken. modref, pcg and singleton detection always recompute
    (cheap; and the reuse guards compare their old-vs-new summaries). *)
type warm_hooks = {
  wh_andersen : Prog.t -> Fsam_andersen.Solver.t option;
  wh_thread_model :
    Prog.t -> Fsam_andersen.Solver.t -> (Fsam_mta.Icfg.t * Fsam_mta.Threads.t) option;
  wh_mhp : Fsam_mta.Threads.t -> Fsam_mta.Mhp.t option;
  wh_locks :
    Prog.t -> Fsam_andersen.Solver.t -> Fsam_mta.Threads.t -> Fsam_mta.Locks.t option;
  wh_svfg :
    Prog.t ->
    Fsam_andersen.Solver.t ->
    Fsam_andersen.Modref.t ->
    Fsam_mta.Icfg.t ->
    Fsam_mta.Threads.t ->
    Fsam_mta.Mhp.t ->
    Fsam_mta.Locks.t ->
    Fsam_mta.Pcg.t ->
    Fsam_memssa.Svfg.t option;
  wh_solve :
    Prog.t ->
    Fsam_andersen.Solver.t ->
    Fsam_memssa.Svfg.t ->
    singleton:(int -> bool) ->
    Sparse.warm option;
}

val cold_hooks : warm_hooks
(** Every hook returns [None]: each phase runs cold. A base for callers
    that warm-start only some phases ([{ cold_hooks with wh_solve = ... }]). *)

val run : ?config:config -> ?warm:warm_hooks -> Prog.t -> t
(** Runs the full FSAM pipeline. The program must be in partial SSA
    (checked). Resets [Fsam_obs] (spans and metrics) at entry; after it
    returns, the global span tree and metrics registry describe this run.
    Without [?warm] every phase runs cold; with it, each phase first asks
    its hook. *)

val run_nonsparse :
  ?config:config -> Prog.t -> Nonsparse.outcome * float
(** Runs the NonSparse baseline (pre-analysis + PCG + iterative data-flow);
    returns the outcome and the total wall-clock analysis time in seconds.
    Also resets and repopulates the [Fsam_obs] state. The OOT budget is
    still accounted in CPU time inside [Nonsparse.solve]. *)

(* Convenience queries ---------------------------------------------------- *)

val pt : t -> Stmt.var -> Fsam_dsa.Iset.t
val pt_names : t -> Stmt.var -> string list
(** Object names, sorted — convenient in tests and examples. *)

val alias : t -> Stmt.var -> Stmt.var -> bool
(** May the two pointers alias (flow-sensitive result)? *)

val total_time : t -> float
val memory_entries : t -> int
val pp_summary : Format.formatter -> t -> unit
