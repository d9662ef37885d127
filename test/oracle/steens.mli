open Fsam_ir

(** Steensgaard's unification-based pointer analysis — near-linear time,
    coarser than Andersen's inclusion-based analysis. A test oracle for the
    staged-analysis design space (the sparse-analysis literature the paper
    builds on [10] permits any sound pre-analysis; the paper, like this
    reproduction's pipeline, uses Andersen's), never run by the pipeline.
    Field-insensitive: [Gep] unifies with the base.

    Guaranteed coarser-or-equal: for every variable,
    [Andersen's pt ⊆ Steensgaard's pt] (checked by the property suite,
    together with interpreter soundness). *)

type t

val run : Prog.t -> t
val pt_var : t -> Stmt.var -> Fsam_dsa.Iset.t
val pt_obj : t -> Stmt.obj -> Fsam_dsa.Iset.t
val n_classes : t -> int
