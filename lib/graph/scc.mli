(** Strongly connected components (Tarjan's algorithm, iterative) of a
    graph given by its successor function over the nodes [0, n). *)

type result = {
  comp_of : int array;  (** node id -> component id *)
  comps : int list array;  (** component id -> member nodes *)
  n_comps : int;
}

val compute : n:int -> succs:(int -> int list) -> result
(** Component ids are numbered in {i reverse} topological order of the
    condensation: if there is an edge from component [a] to component [b]
    (with [a <> b]) then [a > b]. Hence iterating components from
    [n_comps - 1] down to [0] visits them in topological order. Roots are
    tried in ascending id order and successors in [succs] order, so the
    numbering is a function of both. *)

val is_trivial : result -> succs:(int -> int list) -> int -> bool
(** A component is trivial if it has one node without a self loop. *)
