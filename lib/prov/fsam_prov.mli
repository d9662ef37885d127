(** Derivation recorder for provenance-carrying analysis.

    A recorder is an append-only arena of fixed-width integer records, one
    per derived fact, indexed by the fact's key. Each record stores {e one}
    reason — the first one that derived the fact — so walking reasons always
    moves strictly backwards in derivation order and every chain is finite
    and acyclic. A handful of verdict-style facts (strong/weak update
    decisions, [THREAD-VF] pair verdicts) instead use replace semantics via
    {!set} so the final, sound verdict wins.

    The representation is deliberately dumb: an [int array] arena growing by
    doubling plus one [Hashtbl] from keys to arena offsets. No OCaml blocks
    are allocated per record beyond the hashtable entry, and when recording
    is disabled the analysis hot paths never touch this module at all
    (callers guard on an [option]).

    Facts live in {e spaces} so the same integers can key different kinds of
    facts without collision:

    - {!sp_avar}: Andersen — object [obj] entered the points-to set of
      constraint-graph node [k1].
    - {!sp_var}: sparse solve — [obj] entered the top-level points-to set of
      variable [k1].
    - {!sp_mem}: sparse solve — [obj] entered the contents of container
      object [k2] at SVFG node [k1].
    - {!sp_store}: per-store update verdict — store statement gid [k1] last
      performed a strong ({!u_strong}, [x] = killed object) or weak
      ({!u_weak}) update (replace semantics).
    - {!sp_pair}: thread-aware SVFG edge candidate — the verdict for the
      candidate pair (store gid [k1], access gid [k2]) on object [obj]:
      kept ({!p_kept}), filtered by the lock-span non-interference test
      ({!p_filtered_lock}) or skipped because the statements never happen in
      parallel ({!p_skipped_mhp}). *)

type t

val create : unit -> t

val n_records : t -> int
(** Number of facts recorded so far. *)

(* Spaces ----------------------------------------------------------------- *)

val sp_avar : int
val sp_var : int
val sp_mem : int
val sp_store : int
val sp_pair : int

(* Reason tags ------------------------------------------------------------ *)

(* Andersen (space {!sp_avar}); [x]/[y] per tag as documented. *)

val a_base : int  (** address-of at statement gid [x] *)

val a_copy : int  (** flowed over the inclusion edge from node [x] *)

val a_gep : int  (** field of base object [x], materialised at gid [y] *)

val a_fork : int  (** thread object bound to handle cell by fork gid [x] *)

val a_merge : int
(** cycle collapse absorbed node [x] (which holds the original reason) *)

(* Sparse top-level (space {!sp_var}). *)

val s_addr : int  (** address-of at gid [x] *)

val s_copy : int  (** copy/cast from var [x] at gid [y] *)

val s_phi : int  (** phi from var [x] at gid [y] *)

val s_gep : int  (** field of base object [x] at gid [y] *)

val s_load : int
(** load at gid [x]; delivered by SVFG node [y] from container object [z] *)

val s_bind : int  (** parameter/return binding from var [x] at call gid [y] *)

(* Sparse memory cells (space {!sp_mem}). *)

val m_store : int  (** store of var [x] at gid [y] *)

val m_edge : int  (** propagated over the SVFG edge from node [x] *)

val m_fork : int  (** seeded by the fork-site theta binding at gid [x] *)

(* Store update verdicts (space {!sp_store}, replace semantics). *)

val u_strong : int  (** singleton target: killed object [x] *)

val u_weak : int  (** non-singleton or non-killable target *)

(* [THREAD-VF] pair verdicts (space {!sp_pair}). *)

val p_kept : int
(** edge added; [x] = 1 iff the pair is unprotected (no common lock),
    [y],[z] = a witness MHP instance pair (or -1,-1) *)

val p_filtered_lock : int
(** every MHP instance pair passed the span non-interference test
    (paper Definition 6); [x],[y] = the first such instance pair and
    [z] = {!pack_spans} of the justifying span pair + head/tail bits *)

val p_skipped_mhp : int  (** the two statements never happen in parallel *)

(* Span-pair packing for {!p_filtered_lock} ------------------------------- *)

val pack_spans : sp:int -> sp':int -> store_not_tail:bool -> load_not_head:bool -> int
val unpack_spans : int -> int * int * bool * bool
(** [(sp, sp', store_not_tail, load_not_head)] — the common-lock span pair
    and which half of Definition 6 held ([store_not_tail]: the write is not
    the span tail; [load_not_head]: the access is not the span head). *)

(* Recording -------------------------------------------------------------- *)

val add : t -> space:int -> k1:int -> k2:int -> obj:int -> tag:int -> x:int -> y:int -> z:int -> unit
(** First-reason-wins: a no-op if the fact already has a reason. *)

val set : t -> space:int -> k1:int -> k2:int -> obj:int -> tag:int -> x:int -> y:int -> z:int -> unit
(** Replace semantics (verdict facts): overwrite any earlier reason. *)

val find : t -> space:int -> k1:int -> k2:int -> obj:int -> (int * int * int * int) option
(** [(tag, x, y, z)] of the recorded reason, if any. *)
