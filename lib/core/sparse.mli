open Fsam_ir

(** The sparse flow-sensitive points-to solver of paper §3.4 (Figure 10):
    points-to facts propagate only along the pre-computed def-use edges of
    the SVFG. Top-level variables are in SSA form, so each has a single
    global points-to set updated at its unique definition; address-taken
    objects have one set per defining SVFG node ([pt(s, o)]).

    Strong updates ([P-SU/WU]): a store kills the incoming contents of [o]
    when its pointer resolves to exactly [{o}], [o] is a singleton location,
    and the store is not part of an interfering MHP pair on [o]. A store
    through a null pointer (empty points-to set) is a no-op, so its incoming
    values pass through: the drain skips such a store until its pointer
    grows, and every store still empty when the drain settles becomes
    {e pass-through} — it forwards everything and never kills — for a
    second drain. Both rounds are monotone, so the result does not depend
    on the order units are processed in. *)

type t

(* -- dirty-tracking hooks (incremental re-analysis) ---------------------- *)

type deps = { d_defs : int list array; d_users : int list array }
(** Per-variable defining / using statement gids, including the param
    bindings performed at call and fork sites (the callsite is a def of the
    callee's formals) and the ret-var uses at value-returning callsites. *)

val compute_deps : Prog.t -> Fsam_andersen.Solver.t -> deps

val unit_count : Prog.t -> Fsam_memssa.Svfg.t -> int
(** Size of the solver's work-unit universe: statement gids in
    [0, n_stmts), then non-statement SVFG nodes at [n_stmts + node_id]. *)

val unit_of_svfg_node : Prog.t -> Fsam_memssa.Svfg.t -> int -> int
(** The work unit draining an SVFG node: the gid for statement nodes,
    [n_stmts + node_id] for merge nodes. *)

val all_units : Prog.t -> Fsam_memssa.Svfg.t -> int list
(** Every work unit a drain can process: each statement gid, then the
    unit of each non-statement SVFG node — the seeds of a full
    verification sweep over a warm start. *)

type dep_walk
(** The unit dependency relation the drain propagates on, built from the
    program's [compute_deps]: an edge [u -> w] whenever processing [u] can
    enqueue [w] — [u] defines a variable [w] uses, or an SVFG edge leads
    from [u]'s node to [w]'s. Walked on the fly, no graph is built. The
    incremental planner takes the forward closure of its dirty seeds over
    it, and walks it backward from the dirty stores' pointers. *)

val dep_walk : Prog.t -> Fsam_memssa.Svfg.t -> deps -> dep_walk

val iter_dep_succs : dep_walk -> int -> (int -> unit) -> unit
(** [iter_dep_succs w u f] calls [f] on every unit [u] has an edge to, an
    edge possibly more than once. *)

val iter_dep_preds : dep_walk -> int -> (int -> unit) -> unit
(** The inverse of {!iter_dep_succs}. *)

type warm = {
  w_ptv : Fsam_dsa.Iset.t array;  (** pre-proven top-level sets, by var *)
  w_pto : ((int * int) * Fsam_dsa.Iset.t) list;
      (** pre-proven [(svfg node, obj) -> contents] facts *)
  w_units : int list;  (** worklist seeds — the dirty units *)
  w_pass : int list;
      (** stores known to be pass-through from the start: a snapshot
          restore's, or the clean ones of a warm edit (whose verdict cannot
          have changed) *)
  w_deps : deps option;
      (** this program's [compute_deps], when the caller already has it
          (the incremental planner does); [None] computes it *)
}
(** A warm start: facts already known to be part of the least fixpoint
    (e.g. copied from a previous solve's clean slice, translated to this
    program's ids), plus the units whose transfer functions must re-run.
    Soundness requirement on the caller: every unit whose inputs are not
    fully covered by the pre-loaded facts must appear in [w_units] — the
    drain only revisits seeds and whatever they transitively enqueue. *)

val solve :
  ?warm:warm ->
  ?prov:Fsam_prov.t ->
  Prog.t ->
  Fsam_andersen.Solver.t ->
  Fsam_memssa.Svfg.t ->
  singleton:(int -> bool) ->
  t
(** Drains a FIFO worklist seeded with every statement (Figure 10's
    order). [warm], when given, pre-loads the carried facts and seeds the
    worklist with [w_units] instead; the monotone transfer functions then
    reach the same unique least fixpoint a cold run would. [prov], when given, records one
    derivation reason per propagated points-to fact (spaces
    [Fsam_prov.sp_var] and [Fsam_prov.sp_mem]) plus the final strong/weak
    verdict of every store ([Fsam_prov.sp_store]); results are identical
    either way and the disabled path allocates nothing extra. *)

val pt_top : t -> Stmt.var -> Fsam_dsa.Iset.t
(** Points-to set of a top-level variable (at/after its unique def). *)

val pt_at_store : t -> int -> int -> Fsam_dsa.Iset.t
(** [pt_at_store t gid o] — contents of object [o] immediately after the
    store (or fork) statement [gid]. *)

val pt_obj_anywhere : t -> int -> Fsam_dsa.Iset.t
(** Union of [o]'s contents over all defining nodes — a flow-insensitive
    projection used by clients and sanity checks. O(1): served from an
    accumulator maintained during the solve, not a fold over the table. *)

val pto_get : t -> int -> int -> Fsam_dsa.Iset.t
(** [pto_get t node o] — contents of [o] at the SVFG node [node] (empty when
    no fact is recorded). *)

val iter_pto : t -> (node:int -> obj:int -> Fsam_dsa.Iset.t -> unit) -> unit
(** Iterate every [(svfg node, obj) -> contents] fact — lets tests and
    benchmarks check two solver runs for byte-identical results. *)

val n_iterations : t -> int

val passthrough : t -> int list
(** The pass-through stores of this solve (gids, ascending): stores with
    an SVFG node whose pointer was still empty after the first drain, plus
    the warm start's [w_pass]. A pass-through verdict depends on the whole
    program's first round, so the incremental planner re-runs those whose
    facts can reach the pointer of a store it re-runs. *)

val n_strong_updates : t -> int
(** Incoming-edge propagations suppressed by a strong update (cumulative
    over solver events). *)

val n_weak_updates : t -> int

val n_growth : t -> int
(** Add events that enlarged a points-to set during the drain (excluding
    warm pre-loading). A snapshot restore's verification sweep asserts this
    is zero: the restored facts were already the fixpoint. *)

val pts_entries : t -> int
(** Total number of (location, target) facts — the memory-size proxy
    reported in the benchmark tables. *)

val pp_stats : Format.formatter -> t -> unit
