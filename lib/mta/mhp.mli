(** The flow- and context-sensitive interleaving (may-happen-in-parallel)
    analysis of paper §3.3.1, Figure 7: a forward data-flow problem over
    statement instances computing [I(t, c, s)] — the set of abstract threads
    that may run in parallel with thread [t] when it executes statement [s]
    under context [c].

    - [I-DESCENDANT]: the statement after a fork gains the spawnee and all
      of the spawnee's transitive descendants; the spawnee's entry gains its
      ancestors.
    - [I-SIBLING]: entries of sibling threads gain each other unless one
      happens before the other (Definition 2).
    - [I-JOIN]: a handled join removes its kill set.
    - [I-INTRA]/[I-CALL]/[I-RET]: facts flow along instance edges (contexts
      were already matched when the instance graph was built).

    Two instances may happen in parallel when each thread appears in the
    other's fact (or both belong to one multi-forked thread).

    The statement-level queries run on a {e summary index} built once after
    the fixpoint: per gid, the interned set of owning threads (and its
    multi-forked subset) plus the instances grouped by thread with their
    facts unioned. Because the two membership conditions of [mhp_inst]
    constrain the two instances independently, the per-thread facts-unions
    decide statement-level MHP exactly — [mhp_stmt] is a set
    intersection/membership test and [mhp_pairs_inst] scans only the
    instances of thread pairs that already passed it. *)

type t

type stats = {
  mutable stmt_queries : int;
  mutable pair_queries : int;
  mutable thread_checks : int;
      (** per-group/per-thread probes performed by the indexed layer *)
  mutable inst_checks : int;  (** per-instance fact probes actually performed *)
}
(** Work tallies for the query layer. Plain mutable records: the caller
    counts into its own instance and flushes the totals to the metrics
    registry once. *)

val fresh_stats : unit -> stats

val compute : Threads.t -> t

val interference : t -> int -> Fsam_dsa.Iset.t
(** [I(t,c,s)] for an instance id. *)

val mhp_inst : t -> int -> int -> bool
(** May the two statement instances happen in parallel? Symmetric. *)

val mhp_stmt : ?stats:stats -> t -> int -> int -> bool
(** Statement-level projection: some instance pair of the two gids is MHP.
    Symmetric; answered from the summary index without touching instances. *)

val mhp_pairs_inst : ?stats:stats -> t -> int -> int -> (int * int) list
(** All MHP instance pairs [(iid1, iid2)] of two statement gids, restricted
    to the thread pairs that pass the summary test. The pair {e set} equals
    the full instance product filtered by {!mhp_inst}; the order is
    unspecified but deterministic. *)

val witness_pair : t -> int -> int -> (int * int) option
(** First instance pair witnessing [mhp_stmt] for two statement gids (the
    head of the deterministic [mhp_pairs_inst] order); [None] when the
    statements never happen in parallel. The fork/sibling chain justifying
    the pair is recoverable through [Threads.fork_chain] and
    [Threads.happens_before]. *)

val threads : t -> Threads.t
val n_iterations : t -> int
val total_fact_size : t -> int
