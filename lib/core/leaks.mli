(** A never-freed memory-leak client in the spirit of the full-sparse
    value-flow leak detection the paper lists among FSAM's client analyses
    (Sui et al., ISSTA'12 [28]).

    A heap allocation site {e leaks} when no [free] call may receive a
    pointer to it — per the flow-sensitive points-to results, so FSAM's
    precision prunes false "freed" verdicts that flow-insensitive
    reasoning would give. A site is {e double-freed} when two different
    free sites may both release it, or one site can execute repeatedly —
    because it sits in a CFG cycle, or because its thread is multi-forked
    (a [free] in a loop-forked thread body runs once per thread instance).
    [free] is recognised by callee name, matching the MiniC frontend's
    treatment of allocation ([malloc]) by intrinsic name. *)

type finding = Never_freed of int | Double_free of int * int * int
(** [Never_freed heap_obj]; [Double_free (heap_obj, gid1, gid2)]. *)

val detect : Driver.t -> finding list
(** Sorted, deduplicated. *)

val pp_finding : Driver.t -> Format.formatter -> finding -> unit
(** Human-readable rendering, as printed by [fsam leaks]. *)
