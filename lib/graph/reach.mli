(** Reachability queries over a graph given by its successor function:
    [n] bounds the node ids, [succs u] lists [u]'s successors (duplicates
    allowed). *)

val from : n:int -> succs:(int -> int list) -> int -> Fsam_dsa.Bitvec.t
(** Nodes reachable from the given source (including it). *)

val all_paths_hit :
  n:int ->
  succs:(int -> int list) ->
  src:int ->
  targets:Fsam_dsa.Bitvec.t ->
  exits:int list ->
  bool
(** [all_paths_hit ~n ~succs ~src ~targets ~exits] is [true] iff every path
    from [src] to any node in [exits] passes through some node in [targets]
    before (or when) reaching the exit. Used for the happens-before check of
    Definition 2: "the fork site of t' is backward reachable to a join site of
    t along every program path". Paths that never reach an exit (cycles)
    do not falsify the property. *)
