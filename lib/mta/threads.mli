open Fsam_ir

(** The static thread model of paper §3.1 together with the per-thread
    context-sensitive statement-instance graph that the interleaving, lock
    and value-flow analyses all operate on.

    An {e abstract thread} is a context-sensitive fork site [(c, fk)] — plus
    the main thread. A thread is {e multi-forked} (set [M], Definition 1)
    when its fork site sits in a loop or recursion or its spawner is
    multi-forked. A statement {e instance} is a triple [(t, c, s)]: thread,
    calling context (from the entry of [main], fork sites included), and
    statement gid. Instances and their intra-thread ICFG edges are
    enumerated here once and reused by every later phase.

    Join handling ([T-JOIN]): a join instance handles a spawnee when the
    spawnee's fork site resolves through the handle's points-to set, the
    join's thread is the spawner, both occur under the same calling context,
    and the spawnee is a unique runtime thread — not multi-forked, or forked
    and joined in the paper's "symmetric loop" pattern (Figure 11: a
    fork loop and a separate join loop over the same handles, recognised
    structurally in place of LLVM's SCEV). The kill set of a join closes
    over {e full} joins ([T-JOIN] transitivity): a fully joined spawnee's
    own fully joined descendants die with it. *)

type t

type inst = { i_thread : int; i_ctx : Ctx.t; i_gid : int }

val build : ?max_ctx_depth:int -> Prog.t -> Fsam_andersen.Solver.t -> Icfg.t -> t

(* Threads --------------------------------------------------------------- *)

val n_threads : t -> int
val main_tid : t -> int
val is_multi : t -> int -> bool
val parent : t -> int -> int option
val start_fns : t -> int -> int list
val fork_gid_of : t -> int -> int option
(** The fork statement that creates the thread; [None] for main. *)

val fork_id_of : t -> int -> int option
val descendants : t -> int -> Fsam_dsa.Iset.t
(** Transitive spawnees, excluding the thread itself. *)

val ancestors : t -> int -> Fsam_dsa.Iset.t
val siblings : t -> int -> int -> bool
(** Neither thread is an ancestor of the other ([T-SIBLING]). *)

val happens_before : t -> int -> int -> bool
(** [happens_before m t t'] — Definition 2 for sibling threads: the fork
    site of [t'] is only reachable after a join of [t] on every path. *)

val fork_chain : t -> int -> (int * int option) list
(** The spawn chain from main down to (and including) the thread: each
    element is [(tid, fork gid that created it)]; main carries [None].
    This is the fork-chain half of an MHP justification. *)

val thread_name : t -> int -> string

(* Instances -------------------------------------------------------------- *)

val n_insts : t -> int
val inst : t -> int -> inst
val inst_succs : t -> int -> int list
val entry_insts : t -> int -> int list
val insts_of_gid : t -> int -> int list
val insts_of_thread : t -> int -> int list
val find_inst : t -> thread:int -> ctx:Ctx.t -> gid:int -> int option

val fork_spawnees : t -> int -> int list
(** Threads directly spawned by the given fork instance. *)

val join_kills : t -> int -> int list
(** Threads whose execution is complete after the given join instance
    ([I-JOIN] kill set, closed over full joins). *)

val fully_joins : t -> int -> int -> bool
(** [fully_joins m t t'] — [t] joins its direct spawnee [t'] on every path
    from the fork site to the enclosing function's exit. *)

val ctx_store : t -> Ctx.store
val pp_stats : Format.formatter -> t -> unit
