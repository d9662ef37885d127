(** A data-race detection client built on FSAM's results — the first client
    the paper's conclusion proposes. A race is a pair of statements that may
    happen in parallel, access a common abstract object (per the
    flow-sensitive points-to sets, so FSAM's precision directly prunes
    false positives), at least one of them a write, and not protected by a
    common lock.

    Races are not searched for: they are read off the SVFG's [THREAD-VF]
    pair verdicts ({!Fsam_memssa.Svfg.iter_unprotected_pairs}), which
    already enumerate every MHP store/access pair sharing a pre-analysis
    target and decide its lock protection. FSAM's points-to sets are
    subsets of the pre-analysis targets, so every race is a recorded pair;
    [detect] keeps the pairs whose object is in both statements'
    flow-sensitive points-to sets, re-checking MHP and lock protection so
    that the paper's ablation configs, which record wider pair sets, report
    exactly what the definition above gives. The report is therefore empty
    when the SVFG was built without its thread-aware stage. *)

type race = {
  store_gid : int;
  access_gid : int;
  obj : int;
  both_writes : bool;
}

val detect : Driver.t -> race list
(** Deduplicated ([store_gid <= access_gid] for write-write pairs), sorted.
    Reads only the finished analysis: no metrics, no spans. *)

val pp_race : Driver.t -> Format.formatter -> race -> unit
