(** Flow- and context-sensitive lock analysis (paper §3.3.3).

    A {e lock-release span} (Definition 3) is computed for every lock-site
    instance whose lock pointer must-alias a single runtime lock object: the
    set of statement instances forward-reachable from the lock instance —
    calls and returns matched through the instance graph — up to any unlock
    instance that may release the same lock.

    Span heads and tails (Definitions 4, 5) and the non-interference filter
    (Definition 6) are evaluated by the value-flow construction, which owns
    the def-use edges the definitions refer to; this module exposes the
    spans and membership queries it needs. *)

type t

type cache
(** Per-caller query memo and work tallies: a [(i, j)] → common-lock-pairs
    memo plus counters ([c_queries]/[c_bitset_hits]/...). Not shared across
    domains — parallel callers each make their own and merge the counters
    after the join. *)

val make_cache : unit -> cache

val cache_queries : cache -> int
val cache_bitset_hits : cache -> int
val cache_memo_hits : cache -> int
val cache_span_checks : cache -> int

val compute : Fsam_ir.Prog.t -> Fsam_andersen.Solver.t -> Threads.t -> t
(** Besides the spans, [compute] compacts the runtime lock objects into
    dense ids and precomputes one lock-set {!Fsam_dsa.Bitvec.t} per
    instance, so {!commonly_protected} is a single bitwise-AND scan. *)

val n_spans : t -> int
val n_lock_objs : t -> int
val span_lock : t -> int -> int
(** Runtime lock object protecting the span. *)

val span_members : t -> int -> int list
(** Statement-instance ids in the span. *)

val spans_of_inst : t -> int -> int list

(** Span ids containing the given instance. *)

val held_locks : t -> int -> int list
(** Sorted, deduplicated lock objects of the spans covering the instance —
    the held lock set reported in race witnesses. *)

val commonly_protected : t -> int -> int -> bool
(** Do the two instances hold a common runtime lock ([common_lock] would be
    non-empty)? One bitwise-AND over the precomputed per-instance lock
    sets — no span enumeration. *)

val common_lock : ?cache:cache -> t -> int -> int -> (int * int) list
(** For two instances, the pairs of spans [(sp, sp')] with [sp ∋ i],
    [sp' ∋ j] protected by the same runtime lock ([l ≡ l'] of
    Definition 6). Empty when the two are not commonly protected. The
    bitset test short-circuits the empty answer; with [cache], non-empty
    answers are memoised per instance pair and work is tallied. *)
