(* Naive references for the indexed MHP and lock queries: scan every
   instance pair (or span pair) instead of consulting the summary index or
   the lock-set bitvectors. Written against the public [Mhp]/[Threads]/
   [Locks] API; [probes], when given, accumulates the primitive checks each
   scan performs — the naive side of `bench vf`'s work ratio. *)

module Mhp = Fsam_mta.Mhp
module Threads = Fsam_mta.Threads
module Locks = Fsam_mta.Locks

let tally probes n = match probes with Some p -> p := !p + n | None -> ()

(* every MHP instance pair of two statement gids, in [insts_of_gid]
   nesting order *)
let mhp_pairs_inst ?probes mhp g1 g2 =
  let tm = Mhp.threads mhp in
  let is2 = Threads.insts_of_gid tm g2 in
  List.concat_map
    (fun i ->
      List.filter_map
        (fun j ->
          tally probes 1;
          if Mhp.mhp_inst mhp i j then Some (i, j) else None)
        is2)
    (Threads.insts_of_gid tm g1)

(* statement-level MHP, short-circuiting on the first MHP instance pair *)
let mhp_stmt ?probes mhp g1 g2 =
  let tm = Mhp.threads mhp in
  let is2 = Threads.insts_of_gid tm g2 in
  List.exists
    (fun i ->
      List.exists
        (fun j ->
          tally probes 1;
          Mhp.mhp_inst mhp i j)
        is2)
    (Threads.insts_of_gid tm g1)

(* span pairs [(sp, sp')] with [sp ∋ i], [sp' ∋ j] and the same lock,
   comparing every span pair of the two instances *)
let common_lock ?probes lk i j =
  let si = Locks.spans_of_inst lk i and sj = Locks.spans_of_inst lk j in
  tally probes (List.length si * List.length sj);
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b -> if Locks.span_lock lk a = Locks.span_lock lk b then Some (a, b) else None)
        sj)
    si
