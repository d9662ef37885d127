(** Dominator trees and dominance frontiers (Cooper–Harvey–Kennedy,
    "A Simple, Fast Dominance Algorithm"). Used by the frontend's SSA
    construction for top-level variables and by the memory-SSA renaming. *)

type t

val compute : n:int -> succs:(int -> int list) -> preds:(int -> int list) -> entry:int -> t
(** Over the nodes [0, n) of the graph given by [succs] and its inverse
    [preds] (lists may repeat an edge). *)

val idom : t -> int -> int
(** Immediate dominator; the entry's idom is itself; unreachable nodes
    report [-1]. *)

val dominates : t -> int -> int -> bool
(** Reflexive: every node dominates itself. *)

val frontier : t -> int -> int list
(** Dominance frontier of a node. *)

val children : t -> int -> int list
(** Children in the dominator tree. *)

val reachable : t -> int -> bool
