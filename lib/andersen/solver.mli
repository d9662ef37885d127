open Fsam_ir

(** Andersen's inclusion-based pointer analysis — FSAM's pre-analysis
    (paper §1.2, §4.2).

    Flow- and context-insensitive. Solved with worklist difference
    propagation over a copy-edge constraint graph with online cycle
    collapsing (the wave/deep-propagation family of [Pereira & Berlin,
    CGO'09] that the paper's implementation uses). Field-sensitive: [Gep]
    constraints materialise field objects; nested fields are flattened onto
    the root object, which bounds derivations and plays the role of
    positive-weight-cycle collapsing [Pearce et al.]. The call graph is
    built on the fly: indirect call and fork targets are resolved as the
    points-to sets of their function pointers grow. *)

type t

val run : ?prov:Fsam_prov.t -> Prog.t -> t
(** [prov], when given, records one derivation reason per points-to fact
    (space [Fsam_prov.sp_avar], keyed by constraint-graph node): which
    inclusion edge, address-of, field materialisation, fork binding or
    cycle merge first introduced each target. Recording never changes
    results; without it the solver allocates nothing extra. *)

(* Warm start ------------------------------------------------------------- *)

type warm_spec = {
  ws_old : t;  (** the previous generation's solved state *)
  ws_var_map : int array;
      (** old var -> new var ([Serve.Diff]'s pairing), [-1] when unmapped *)
  ws_dirty_fids : int list;
      (** functions whose statements changed; fids must be identical across
          the two programs *)
}

val run_warm : Prog.t -> warm:warm_spec -> (t, string) result
(** Re-solve the edited program starting from the previous fixpoint:
    constraints owned by dirty functions are retracted (the constraint
    tables are rebuilt from the new program), the affected closure of the
    edit is re-solved from bottom, and every node outside it keeps its old
    points-to set verbatim. The result is byte-identical to [run] on the
    new program. [Error reason] when a precondition fails (provenance
    enabled, object-table or fork-site drift, materialised field objects);
    the caller falls back to a cold run and counts the reason. *)

(* Points-to queries ------------------------------------------------------ *)

val pt_var : t -> Stmt.var -> Fsam_dsa.Iset.t
(** Objects the top-level variable may point to. *)

val pt_obj : t -> Stmt.obj -> Fsam_dsa.Iset.t
(** Objects the cell of the given object may point to. *)

val alias_targets : t -> Stmt.var -> Stmt.var -> Fsam_dsa.Iset.t
(** The paper's [ASp] alias-target set: objects pointed to by both. *)

(* Call graph ------------------------------------------------------------- *)

val callees : t -> fid:int -> idx:int -> int list
(** Resolved callees of the [Call] or [Fork] statement at [(fid, idx)]. *)

val call_graph : t -> Fsam_graph.Digraph.t
(** Function-level call graph including fork edges (caller -> start proc). *)

val fork_targets : t -> int -> int list
(** Start procedures of the given fork id. *)

val join_threads : t -> fid:int -> idx:int -> int list
(** Fork ids of the abstract threads that the [Join] at [(fid, idx)] may
    join (resolved through the handle's points-to set). *)

val ret_vars : t -> int -> Stmt.var list
(** The variables returned by a function. *)

val reachable_funcs : t -> Fsam_dsa.Bitvec.t
(** Functions reachable from [main] in the call graph (incl. fork edges). *)

(* Provenance queries ----------------------------------------------------- *)

val prov_recorder : t -> Fsam_prov.t option
val prov_node_of_var : t -> Stmt.var -> int
val prov_node_of_obj : t -> Stmt.obj -> int
val prov_var_of_node : t -> int -> Stmt.var option
val prov_obj_of_node : t -> int -> Stmt.obj option

val prov_find : t -> node:int -> obj:int -> (int * int * int * int) option
(** [(tag, x, y, z)] for "why is [obj] in the points-to set of [node]" —
    looks the node up both directly and through its representative, so
    chains recorded before a cycle collapse remain resolvable. *)

(* Statistics ------------------------------------------------------------- *)

val n_solver_iterations : t -> int
val total_pts_size : t -> int
val pp_stats : Format.formatter -> t -> unit
