(** Mutable directed graphs over dense integer node ids, for graphs that
    grow edge by edge (the Andersen call graph, discovered on the fly).
    Graphs that are built once only are walked through their owner's
    successor function instead (see {!Reach}, {!Scc}, {!Dominance}).

    Nodes are created implicitly by adding edges or explicitly with
    [ensure_node]; ids should stay dense as internal storage is array-based.
    Parallel edges are collapsed (edge sets, not multisets). *)

type t

val create : ?size_hint:int -> unit -> t
val ensure_node : t -> int -> unit
val add_edge : t -> int -> int -> unit
val has_edge : t -> int -> int -> bool
val n_nodes : t -> int
(** One past the largest node id ever touched. *)

val succs : t -> int -> int list
(** Ascending. *)

val iter_succs : t -> int -> (int -> unit) -> unit
val iter_edges : t -> (int -> int -> unit) -> unit
