(** Deterministic domain-pool fan-out for the read-only analysis passes.

    The clients (leak and deadlock detection, MHP sibling seeding, the
    SVFG's [THREAD-VF] pair discovery) are read-only over prior
    analysis results and quadratic in some index range, so they parallelise
    by splitting the range into contiguous pieces, evaluating each in an
    OCaml 5 domain, and merging the per-piece accumulators {e in range
    order} — the concatenated result is byte-identical to the serial
    left-to-right traversal for every [jobs] value.

    The range is first decomposed by {!plan} into weight-balanced
    {e blocks} — a pure function of [(n, weights, cutoff)], never of [jobs]
    or the machine, which is what keeps per-block state and counters
    identical across jobs values. When the estimated total weight is below
    the sequential {!cutoff} the whole range is a single block evaluated in
    the calling domain: no [Domain.spawn], no per-worker gauges, no
    regression on small inputs. Above it, [min jobs blocks] workers run a
    work-stealing scheduler over the block indices (owners pop their deque
    front-to-back, idle workers steal from the tail), so stragglers do not
    serialise the region; which {e domain} runs a block is racy, but
    results are keyed by block index and merged in block order.

    Contract for the chunk function: it must not touch the process-global
    observability state ({!Fsam_obs.Span}, {!Fsam_obs.Metrics} — neither is
    domain-safe) and must only read shared analysis results. All
    [Fsam_dsa.Iset] operations are fine: the intern table is domain-safe. *)

val available_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [--jobs 0] resolves to. *)

val resolve_jobs : int -> int
(** [resolve_jobs j] is [available_jobs ()] when [j <= 0] ([0 = auto]),
    else [j]. *)

val default_cutoff : int
(** The built-in sequential cutoff, in weight units (≈ one pairwise probe
    each): 65536. *)

val cutoff : unit -> int
val set_cutoff : int -> unit
(** The active sequential cutoff, initially {!default_cutoff}. Ranges
    whose total weight falls below it run serially in the calling domain.
    [set_cutoff] is a test seam (main domain only): a small cutoff makes
    tiny inputs exercise the work-stealing path. *)

val plan : ?weight:(int -> int) -> ?cutoff:int -> n:int -> unit -> int array
(** The adaptive block decomposition: boundaries [b.(0) = 0 <= ... <=
    b.(blocks) = n] such that block [j] covers [\[b.(j), b.(j+1))] with
    near-equal total weight per block ([weight i] estimates item [i]'s
    cost; default 1; negative weights count as 0). Returns [\[|0; n|\]] —
    one block, the serial path — when [n <= 1] or the total weight is below
    the cutoff. The block count scales with [total/(cutoff/8)], capped at
    [min n 256]. A pure function of its arguments: callers can rely on the
    same plan on every machine and for every jobs value. *)

val run_chunks :
  ?label:string ->
  ?weight:(int -> int) ->
  ?cutoff:int ->
  jobs:int ->
  n:int ->
  (lo:int -> hi:int -> 'a) ->
  'a list
(** [run_chunks ~jobs ~n f] evaluates [f ~lo ~hi] over a decomposition of
    [\[0, n)] ([lo] inclusive, [hi] exclusive) and returns the results in
    range order. [jobs] is passed through {!resolve_jobs} ([<= 0] means
    auto). [?weight]/[?cutoff] feed {!plan}.

    Determinism: the decomposition ignores [jobs], so the list of [f]
    invocations — and therefore anything [f] accumulates per block — is
    identical for every jobs value, and the concatenated results equal the
    serial left-to-right traversal. An exception from [f] is recorded, the
    remaining blocks still run, and the failure with the smallest block
    index is re-raised after the join.

    After the join, per-domain wall times and the imbalance are recorded
    in {!Fsam_obs.Metrics} (from the calling domain only):
    [par.<label>.jobs], [.chunks] (worker lanes), [.blocks] (plan blocks),
    [.wall_us], [.max_chunk_us], [.min_chunk_us], [.imbalance_pct]
    ([100 * (max - min) / max] over per-lane walls), and per-lane
    attribution gauges [par.<label>.domain<i>.wall_us] / [.items] /
    [.intern_contention] / [.events] (the last only under profiling). The
    whole [par.<label>.domain*] family is cleared first, so a run that
    uses fewer lanes (e.g. the cutoff dropping a region to serial) leaves
    no stale gauges from a previous wider run. [label] defaults to
    ["par"].

    When {!Fsam_obs.Timeline.enabled} (set by [Driver.config.profile]),
    each lane records a {!Fsam_obs.Timeline} ring: chunk start/stop per
    executed block with its index range, intern-table stripe contention,
    and whatever per-item events the body [emit]s; lane 0 records one
    merge event per joined worker, and all rings are absorbed in lane
    order after the join — the basis of the per-domain trace lanes and the
    [fsam profile] utilization report. All chunk timing is monotonic
    ({!Fsam_obs.Monotonic}), immune to wall-clock steps. *)
