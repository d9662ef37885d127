(** A full introspection report of one FSAM run: per-phase statistics in the
    order of the paper's Figure 2 pipeline, plus client summaries. Exposed
    as [fsam report FILE] in the CLI. *)

type t = {
  (* program *)
  r_stmts : int;
  r_funcs : int;
  r_vars : int;
  r_objs : int;
  (* pre-analysis *)
  r_andersen_iters : int;
  r_andersen_facts : int;
  r_reachable_funcs : int;
  (* thread model *)
  r_threads : int;
  r_multi_forked : int;
  r_instances : int;
  r_handled_join_insts : int;
  (* interference analyses *)
  r_mhp_iters : int;
  r_mhp_facts : int;
  r_lock_spans : int;
  (* def-use graph *)
  r_svfg_nodes : int;
  r_svfg_edges : int;
  r_thread_aware_edges : int;
  (* solve *)
  r_solver_iters : int;
  r_pts_facts : int;
  r_strong_updates : int;
  r_weak_updates : int;
  (* clients *)
  r_races : int;
  r_deadlocks : int;
  r_instrumented : int;
  r_accesses : int;
  (* timing *)
  r_run : Fsam_obs.Span.t;  (** the run's [fsam.run] span: phase walls are read off it *)
}

val build : Driver.t -> t
val pp : Format.formatter -> t -> unit

val to_json : t -> Fsam_obs.Json.t
(** Machine-readable form of the report, grouped like [pp]; embedded in the
    [Telemetry] export. *)

val phase_seconds : Fsam_obs.Span.t -> Fsam_obs.Json.t
(** [to_json]'s [phase_seconds] object: the [phase.*] walls under a run's
    root span, keyed [pre], [thread_model], [interleaving], [lock], [svfg],
    [solve]. *)
