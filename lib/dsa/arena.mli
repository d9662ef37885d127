(** Arena-backed flat stores: growable int buffers, an open-addressing
    int→int map, and CSR adjacency — the cache-friendly alternative to
    [Hashtbl]s with boxed tuple keys on hot read-mostly paths.

    Every field is a flat [int array], so a probe does no pointer-chasing
    and the GC scans no boxed keys. The intended discipline (after the
    arena/flat-array engines this borrows from) is build-once / read-many:
    populate, then only query. No store here supports deletion; a
    structure that is spliced in place (the SVFG across warm edits) keeps
    its rows in ordinary lists and tables instead.

    All keys and values are non-negative ints; composite keys are packed by
    the caller ([key = row * stride + col] — 63-bit ints leave plenty of
    room for any (object, gid) pair this codebase produces). *)

(** Growable flat int buffer — the arena itself. *)
module Buf : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int

  val push : t -> int -> int
  (** Append a value, growing geometrically; returns its index. *)

  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val to_array : t -> int array
  val copy : t -> t
end

(** Open-addressing int→int hash map over two flat arrays (linear probing,
    power-of-two capacity, ≤ 50% load). Keys must be [>= 0]. *)
module Intmap : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int

  val set : t -> key:int -> int -> unit
  (** Insert or overwrite. *)

  val find : t -> key:int -> default:int -> int

  val find_or_add : t -> key:int -> (unit -> int) -> int
  (** Return the bound value, binding [mk ()] first when absent. *)

  val iter : t -> (key:int -> int -> unit) -> unit
  (** Iteration order is unspecified (it follows the probe layout); use only
      for order-insensitive folds. *)

  val copy : t -> t
end

(** Compressed sparse rows: per-row int adjacency in two flat arrays
    ([offsets] + [data]), built in two passes from any edge enumeration. *)
module Csr : sig
  type t

  val build : n_rows:int -> ((row:int -> value:int -> unit) -> unit) -> t
  (** [build ~n_rows iter] calls [iter emit] twice — once to count, once to
      fill — so the enumeration must be repeatable (same multiset of
      [(row, value)] emissions, any order). Rows are [0 .. n_rows - 1]. *)

  val n_rows : t -> int
  val degree : t -> int -> int

  val iter_row : t -> int -> (int -> unit) -> unit
  val exists_row : t -> int -> (int -> bool) -> bool

  val mem_row : t -> int -> int -> bool
  (** Linear membership scan of one row. *)
end
