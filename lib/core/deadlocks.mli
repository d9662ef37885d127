(** A lock-order-cycle deadlock detector built on FSAM's thread analyses —
    one of the client analyses the paper's conclusion proposes (citing
    Gadara [30]).

    A {e lock-order edge} [l -> l'] is recorded when a lock site acquiring
    [l'] executes inside a lock-release span of [l]. A potential deadlock is
    a pair of opposite edges [l -> l'] and [l' -> l] whose acquisition
    instances may happen in parallel. *)

type deadlock = {
  lock_a : int;  (** lock object *)
  lock_b : int;
  site_ab : int;  (** gid acquiring [lock_b] while holding [lock_a] *)
  site_ba : int;  (** gid acquiring [lock_a] while holding [lock_b] *)
}

val detect : Driver.t -> deadlock list
(** Sorted, deduplicated. *)

val pp_deadlock : Driver.t -> Format.formatter -> deadlock -> unit
(** Human-readable rendering, as printed by [fsam deadlocks]. *)
