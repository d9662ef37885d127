(** The incremental re-analysis planner: given a {!Diff} between the old and
    new program versions and the old generation's results, compute a
    {!Fsam_core.Sparse.warm} start — the clean slice of the old fixpoint
    translated into new ids, plus the dirty units that must re-run.

    The engine calls it as the [Driver.warm_hooks.wh_solve] hook, after
    the new generation's pre-phases (Andersen, thread model, MHP, locks,
    SVFG, singletons) have produced their results — whether warm-started
    from the old generation or re-run cold, the plan only reads them. The
    file-level comment in the implementation states the clean/dirty
    soundness argument. *)

type stats = {
  s_units : int;  (** work-unit universe size *)
  s_dirty : int;  (** units in the dirty closure (re-run) *)
  s_seeds : int;  (** direct seeds before closure *)
  s_cascades : int;  (** rounds of the non-copyable-variable fixpoint *)
  s_copied_vars : int;  (** top-level sets carried over *)
  s_copied_facts : int;  (** (node, obj) memory facts carried over *)
  s_changed_funcs : int;  (** functions whose AST changed *)
}

val plan :
  diff:Diff.t ->
  old_prog:Fsam_ir.Prog.t ->
  old_and:Fsam_andersen.Solver.t ->
  old_svfg:Fsam_memssa.Svfg.t ->
  old_sparse:Fsam_core.Sparse.t ->
  old_singleton:(int -> bool) ->
  new_prog:Fsam_ir.Prog.t ->
  new_and:Fsam_andersen.Solver.t ->
  new_svfg:Fsam_memssa.Svfg.t ->
  new_singleton:(int -> bool) ->
  (Fsam_core.Sparse.warm * stats, string) result
(** [Error] means some clean fact could not be translated (an object with
    no image in the new program) — the engine must fall back to a cold
    solve. Translation never materialises field objects
    ([Prog.find_field_obj] is read-only), so a failed plan leaves the new
    program's object table exactly as the cold pre-phases built it. *)
