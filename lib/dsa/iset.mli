(** Sets of non-negative integers as {i hash-consed} big-endian Patricia
    trees.

    This is the points-to set representation used throughout the analyses.
    Patricia trees give structural sharing: unioning two sets reuses common
    subtrees, which matters a great deal for pointer analysis where thousands
    of points-to sets share most of their elements (cf. LLVM's
    [SparseBitVector], which the paper's implementation uses).

    Every node additionally goes through a weak hash-cons table, so
    structurally equal sets are physically equal: [equal] is pointer
    comparison, [hash] and [compare] are O(1) on the node's unique tag, and
    repeated [union]s of the same operands — the dominant operation of the
    propagation solvers — are served from a bounded memo table.

    All operations are purely functional. Keys must be [>= 0].

    {b Domain safety}: every operation may be called concurrently from any
    number of OCaml 5 domains. The intern table is sharded behind striped
    mutexes (one uncontended lock per node creation on the serial path),
    tags come from an atomic counter, and the union memo is per-domain via
    [Domain.DLS] — so [equal]-is-[==] and the [union a b == a] fixpoint
    test hold across domains. See DESIGN.md for the tradeoff discussion. *)

type t

val empty : t
val is_empty : t -> bool
val singleton : int -> t
val mem : int -> t -> bool
val add : int -> t -> t
val remove : int -> t -> t

val union : t -> t -> t
(** [union a b] returns [a] itself (physical equality) iff [b ⊆ a];
    the solvers rely on this to detect fixpoints cheaply. Branch-level
    unions are memoized in a bounded direct-mapped table. *)

val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool

val equal : t -> t -> bool
(** O(1): hash-consing makes structural equality pointer equality. *)

val disjoint : t -> t -> bool
val cardinal : t -> int
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val exists : (int -> bool) -> t -> bool
val for_all : (int -> bool) -> t -> bool
val filter : (int -> bool) -> t -> t
val elements : t -> int list
(** Sorted in increasing order. *)

val of_list : int list -> t
val choose : t -> int option
(** An arbitrary element, [None] on the empty set. *)

val min_elt : t -> int option

val as_singleton : t -> int option
(** [Some k] iff the set is exactly [{k}], in O(1) — the strong-update
    tests of the flow-sensitive solvers live on this. *)

val compare : t -> t -> int
(** O(1) total order on hash-cons tags — consistent with [equal]; not the
    subset order, and not stable across processes. *)

val hash : t -> int
(** O(1), from the hash-cons tag. *)

val union_memo_stats : unit -> int * int
(** Cumulative [(hits, misses)] of the per-domain union memo tables since
    process start (live domains plus retired ones); solvers report deltas
    as metrics. *)

val live_nodes : unit -> int
(** Number of nodes currently live in the hash-cons table. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{1, 2, 3}]. *)
