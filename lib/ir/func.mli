(** A function: parameters plus a statement-level control-flow graph, as in
    the paper's per-thread ICFGs (§3.1) — "a node s represents a program
    statement". Node ids are indices into [stmts]; [entry] is node 0. *)

type t = {
  fid : int;
  fname : string;
  params : Stmt.var list;
  stmts : Stmt.t array;
  succ : int list array;
  pred : int list array;
  exits : int list;  (** indices of [Return] statements *)
}

val entry : t -> int
val n_stmts : t -> int
val stmt : t -> int -> Stmt.t
val iter_stmts : t -> (int -> Stmt.t -> unit) -> unit
