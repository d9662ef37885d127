open Fsam_ir

(** The interprocedural control-flow graph (paper §3.1): nodes are statement
    gids; edges are intraprocedural, call (callsite -> callee entry) or
    return (callee exit -> callsite successor), with the callsite gid as the
    matching label. A resolved call's intraprocedural successors are reached
    only through its callees' returns; an unresolved call (empty points-to
    set for the function pointer) keeps its fall-through. Fork and join sites
    have no interprocedural edges — a spawnee has its own ICFG. *)

type edge_kind = Intra | Call of int | Ret of int

type t

val build : Prog.t -> Fsam_andersen.Solver.t -> t
val prog : t -> Prog.t
val succs : t -> int -> (edge_kind * int) list
val preds : t -> int -> (edge_kind * int) list
val entry_gid : t -> int -> int
(** Entry statement gid of a function. *)

val exit_gids : t -> int -> int list
val stmt : t -> int -> Stmt.t
val fid_of : t -> int -> int
(** Enclosing function of a statement gid. *)

val in_cfg_cycle : t -> int -> bool
(** Whether the statement sits inside a cycle of its function's CFG. *)

val collapsed_callsite : t -> int -> bool
(** Whether the callsite belongs to a call-graph SCC and is therefore
    analysed context-insensitively (paper §3.1). *)

val recursive : t -> int -> bool
(** Whether the function sits on a cycle of the call graph (fork edges
    included): a non-trivial SCC or a self-call. *)
