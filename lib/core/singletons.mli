open Fsam_ir

(** The [singletons] set of paper §3.4 (after [Lhoták & Chung, POPL'11]):
    abstract objects known to represent exactly one runtime location, and
    hence eligible for strong updates. Excluded are heap objects, arrays,
    locals of recursive functions — and, in the multithreaded setting,
    locals of functions that may be executed by more than one runtime
    thread (several abstract threads, or one multi-forked thread). Field
    objects inherit their root's status. *)

val compute : Prog.t -> Fsam_mta.Threads.t -> Fsam_mta.Icfg.t -> (int -> bool)
(** Returns a predicate on object ids, valid also for field objects
    materialised after the call. *)
