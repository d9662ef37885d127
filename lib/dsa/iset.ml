(* Hash-consed big-endian Patricia trees after Okasaki & Gill, "Fast
   Mergeable Integer Maps" (ML Workshop 1998), specialised to sets of
   non-negative ints.

   Every node is registered in a weak hash-cons table, so structurally equal
   sets are physically equal: [equal] is pointer comparison, [hash] and
   [compare] read the node's unique tag, and a bounded direct-mapped memo
   table turns repeated [union]s of the same operands — the dominant
   operation of every propagation-style solver in this repository — into
   cache hits. The table is weak, so nodes unreachable from live sets are
   reclaimed by the GC; the memo tables are the only structures pinning a
   bounded number of them.

   Domain safety (see DESIGN.md §"Domain-safety of the hash-cons table"):
   the serve daemon's async edits and its stats sampler run in their own
   OCaml 5 domains, and every Patricia operation may intern fresh nodes,
   so the intern table is sharded into
   [n_stripes] independent weak sets, each behind its own mutex — node
   creation takes exactly one uncontended lock on the serial path, and
   concurrent creations only contend when they hash to the same stripe.
   Tags come from one [Atomic] counter (allocated eagerly, so duplicates
   burn a tag — uniqueness, not density, is the contract). The union memo
   is per-domain via [Domain.DLS]: no locking on the solver's hottest
   path, at the cost of a cold memo in each freshly spawned domain. *)

type t = { tag : int; node : node }

and node =
  | Empty
  | Leaf of int
  | Branch of int * int * t * t
      (* Branch (prefix, branching-bit, left, right): [left] holds keys whose
         branching bit is 0, [right] those whose bit is 1. The prefix is the
         common high-order part of every key in the subtree. *)

(* Hash-consing ----------------------------------------------------------- *)

module Node_hash = struct
  type nonrec t = t

  (* Children are already hash-consed, so one level of pointer comparison
     decides structural equality of the whole subtree. *)
  let equal a b =
    match (a.node, b.node) with
    | Empty, Empty -> true
    | Leaf i, Leaf j -> i = j
    | Branch (p, m, l0, r0), Branch (q, n, l1, r1) ->
      p = q && m = n && l0 == l1 && r0 == r1
    | _ -> false

  let hash a =
    match a.node with
    | Empty -> 17
    | Leaf i -> (i * 0x9e3779b1) land max_int
    | Branch (p, m, l, r) ->
      (p + (m * 31) + (l.tag * 0x9e3779b1) + (r.tag * 0x85ebca6b)) land max_int
end

module W = Weak.Make (Node_hash)

(* Striped intern table: stripe = hash of the (tag-free) node shape, so the
   same shape always lands in the same stripe regardless of which domain
   interns it first — the mutex then guarantees a single canonical node. *)
let n_stripes = 64 (* power of two *)
let stripes = Array.init n_stripes (fun _ -> W.create 512)
let stripe_locks = Array.init n_stripes (fun _ -> Mutex.create ())
let next_tag = Atomic.make 0

let hashcons node =
  let tentative = { tag = Atomic.fetch_and_add next_tag 1; node } in
  let i = Node_hash.hash tentative land (n_stripes - 1) in
  let m = stripe_locks.(i) in
  Mutex.lock m;
  match W.merge stripes.(i) tentative with
  | r ->
    Mutex.unlock m;
    r
  | exception e ->
    Mutex.unlock m;
    raise e

let empty = hashcons Empty
let is_empty t = t == empty
let leaf k = hashcons (Leaf k)
let singleton k = leaf k
let mk_branch p m l r = hashcons (Branch (p, m, l, r))

let live_nodes () =
  let n = ref 0 in
  Array.iteri
    (fun i t ->
      Mutex.lock stripe_locks.(i);
      n := !n + W.count t;
      Mutex.unlock stripe_locks.(i))
    stripes;
  !n

(* Bit fiddling ----------------------------------------------------------- *)

let zero_bit k m = k land m = 0

(* Big-endian: the branching bit [m] is the highest differing bit; the prefix
   keeps the bits strictly above [m]. *)
let mask k m = k land lnot ((m lsl 1) - 1)
let match_prefix k p m = mask k m = p

let branching_bit p0 p1 =
  (* highest bit where the prefixes differ *)
  let x = p0 lxor p1 in
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  let x = x lor (x lsr 32) in
  x - (x lsr 1)

let join p0 t0 p1 t1 =
  let m = branching_bit p0 p1 in
  if zero_bit p0 m then mk_branch (mask p0 m) m t0 t1
  else mk_branch (mask p0 m) m t1 t0

(* Queries ---------------------------------------------------------------- *)

let rec mem k t =
  match t.node with
  | Empty -> false
  | Leaf j -> k = j
  | Branch (p, m, l, r) ->
    if not (match_prefix k p m) then false
    else if zero_bit k m then mem k l
    else mem k r

let rec add k t =
  match t.node with
  | Empty -> leaf k
  | Leaf j -> if j = k then t else join k (leaf k) j t
  | Branch (p, m, l, r) ->
    if match_prefix k p m then
      if zero_bit k m then
        let l' = add k l in
        if l' == l then t else mk_branch p m l' r
      else
        let r' = add k r in
        if r' == r then t else mk_branch p m l r'
    else join k (leaf k) p t

let branch p m l r =
  if is_empty l then r else if is_empty r then l else mk_branch p m l r

let rec remove k t =
  match t.node with
  | Empty -> empty
  | Leaf j -> if k = j then empty else t
  | Branch (p, m, l, r) ->
    if not (match_prefix k p m) then t
    else if zero_bit k m then
      let l' = remove k l in
      if l' == l then t else branch p m l' r
    else
      let r' = remove k r in
      if r' == r then t else branch p m l r'

(* Merging. Hash-consing makes the physical-identity contract exact:
   [union a b == a] iff [b ⊆ a]. ------------------------------------------ *)

(* Bounded direct-mapped memo for Branch×Branch unions. Empty never reaches
   the memo (fast-pathed below), so it doubles as the vacant sentinel.

   One memo per domain ([Domain.DLS]): the arrays are mutated with no
   synchronisation whatsoever, which is only sound because no other domain
   can see them. Hit/miss counters live in the memo record; a weak registry
   keeps the stats of live memos readable from the main domain, and a
   finaliser folds a dying domain's counts into the [retired_*] atomics so
   [union_memo_stats] stays cumulative after worker domains are joined and
   collected (their memo arrays — and the nodes they pin — are then freed
   with the domain's local state). *)
let memo_bits = 16
let memo_size = 1 lsl memo_bits

type memo = {
  ma : t array;
  mb : t array;
  mr : t array;
  mutable hits : int;
  mutable misses : int;
}

let retired_hits = Atomic.make 0
let retired_misses = Atomic.make 0
let memo_registry : memo Weak.t list ref = ref []
let memo_registry_lock = Mutex.create ()

let memo_key =
  Domain.DLS.new_key (fun () ->
      let m =
        {
          ma = Array.make memo_size empty;
          mb = Array.make memo_size empty;
          mr = Array.make memo_size empty;
          hits = 0;
          misses = 0;
        }
      in
      Gc.finalise
        (fun m ->
          Atomic.fetch_and_add retired_hits m.hits |> ignore;
          Atomic.fetch_and_add retired_misses m.misses |> ignore)
        m;
      let w = Weak.create 1 in
      Weak.set w 0 (Some m);
      Mutex.lock memo_registry_lock;
      memo_registry := w :: List.filter (fun w -> Weak.check w 0) !memo_registry;
      Mutex.unlock memo_registry_lock;
      m)

let union_memo_stats () =
  Mutex.lock memo_registry_lock;
  let live = List.filter_map (fun w -> Weak.get w 0) !memo_registry in
  Mutex.unlock memo_registry_lock;
  List.fold_left
    (fun (h, m) memo -> (h + memo.hits, m + memo.misses))
    (Atomic.get retired_hits, Atomic.get retired_misses)
    live

let memo_slot a b =
  ((a.tag * 0x9e3779b1) lxor (b.tag * 0x85ebca6b)) land (memo_size - 1)

(* The memo is fetched once per top-level [union] and threaded through the
   recursion: [Domain.DLS.get] off the hot inner loop. *)
let rec union_m memo s t =
  if s == t then s
  else
    match (s.node, t.node) with
    | Empty, _ -> t
    | _, Empty -> s
    | Leaf k, _ -> add k t
    | _, Leaf k -> add k s
    | Branch _, Branch _ ->
      (* normalise operand order: the result is the same set either way, and
         hash-consing makes it the same pointer, so one slot serves both *)
      let a, b = if s.tag <= t.tag then (s, t) else (t, s) in
      let i = memo_slot a b in
      if memo.ma.(i) == a && memo.mb.(i) == b then begin
        memo.hits <- memo.hits + 1;
        memo.mr.(i)
      end
      else begin
        memo.misses <- memo.misses + 1;
        let r = union_branches memo a b in
        memo.ma.(i) <- a;
        memo.mb.(i) <- b;
        memo.mr.(i) <- r;
        r
      end

and union_branches memo s t =
  match (s.node, t.node) with
  | Branch (p, m, l0, r0), Branch (q, n, l1, r1) ->
    if m = n && p = q then
      let l = union_m memo l0 l1 and r = union_m memo r0 r1 in
      if l == l0 && r == r0 then s
      else if l == l1 && r == r1 then t
      else mk_branch p m l r
    else if m > n && match_prefix q p m then
      if zero_bit q m then
        let l = union_m memo l0 t in
        if l == l0 then s else mk_branch p m l r0
      else
        let r = union_m memo r0 t in
        if r == r0 then s else mk_branch p m l0 r
    else if m < n && match_prefix p q n then
      if zero_bit p n then
        let l = union_m memo s l1 in
        if l == l1 then t else mk_branch q n l r1
      else
        let r = union_m memo s r1 in
        if r == r1 then t else mk_branch q n l1 r
    else join p s q t
  | _ -> assert false

let union s t =
  if s == t then s
  else
    match (s.node, t.node) with
    | Empty, _ -> t
    | _, Empty -> s
    | Leaf k, _ -> add k t
    | _, Leaf k -> add k s
    | Branch _, Branch _ -> union_m (Domain.DLS.get memo_key) s t

let rec inter s t =
  if s == t then s
  else
    match (s.node, t.node) with
    | Empty, _ | _, Empty -> empty
    | Leaf k, _ -> if mem k t then s else empty
    | _, Leaf k -> if mem k s then t else empty
    | Branch (p, m, l0, r0), Branch (q, n, l1, r1) ->
      if m = n && p = q then branch p m (inter l0 l1) (inter r0 r1)
      else if m > n && match_prefix q p m then
        inter (if zero_bit q m then l0 else r0) t
      else if m < n && match_prefix p q n then
        inter s (if zero_bit p n then l1 else r1)
      else empty

let rec diff s t =
  if s == t then empty
  else
    match (s.node, t.node) with
    | Empty, _ -> empty
    | _, Empty -> s
    | Leaf k, _ -> if mem k t then empty else s
    | _, Leaf k -> remove k s
    | Branch (p, m, l0, r0), Branch (q, n, l1, r1) ->
      if m = n && p = q then branch p m (diff l0 l1) (diff r0 r1)
      else if m > n && match_prefix q p m then
        if zero_bit q m then branch p m (diff l0 t) r0
        else branch p m l0 (diff r0 t)
      else if m < n && match_prefix p q n then
        diff s (if zero_bit p n then l1 else r1)
      else s

let rec subset s t =
  s == t
  ||
  match (s.node, t.node) with
  | Empty, _ -> true
  | _, Empty -> false
  | Leaf k, _ -> mem k t
  | Branch _, Leaf _ -> false
  | Branch (p, m, l0, r0), Branch (q, n, l1, r1) ->
    if m = n && p = q then subset l0 l1 && subset r0 r1
    else if m < n && match_prefix p q n then
      subset s (if zero_bit p n then l1 else r1)
    else false

(* Physical equality is complete: the hash-cons table guarantees any two
   live structurally-equal sets are the same node. *)
let equal s t = s == t

let rec disjoint s t =
  match (s.node, t.node) with
  | Empty, _ | _, Empty -> true
  | Leaf k, _ -> not (mem k t)
  | _, Leaf k -> not (mem k s)
  | Branch (p, m, l0, r0), Branch (q, n, l1, r1) ->
    if m = n && p = q then disjoint l0 l1 && disjoint r0 r1
    else if m > n && match_prefix q p m then
      disjoint (if zero_bit q m then l0 else r0) t
    else if m < n && match_prefix p q n then
      disjoint s (if zero_bit p n then l1 else r1)
    else true

let rec cardinal t =
  match t.node with
  | Empty -> 0
  | Leaf _ -> 1
  | Branch (_, _, l, r) -> cardinal l + cardinal r

let rec iter f t =
  match t.node with
  | Empty -> ()
  | Leaf k -> f k
  | Branch (_, _, l, r) ->
    iter f l;
    iter f r

let rec fold f t acc =
  match t.node with
  | Empty -> acc
  | Leaf k -> f k acc
  | Branch (_, _, l, r) -> fold f r (fold f l acc)

let rec exists p t =
  match t.node with
  | Empty -> false
  | Leaf k -> p k
  | Branch (_, _, l, r) -> exists p l || exists p r

let rec for_all p t =
  match t.node with
  | Empty -> true
  | Leaf k -> p k
  | Branch (_, _, l, r) -> for_all p l && for_all p r

let rec filter p t =
  match t.node with
  | Empty -> empty
  | Leaf k -> if p k then t else empty
  | Branch (pr, m, l, r) ->
    let l' = filter p l and r' = filter p r in
    if l' == l && r' == r then t else branch pr m l' r'

(* Big-endian layout on non-negative keys means an in-order walk visits keys
   in increasing order. *)
let elements t = List.rev (fold (fun k acc -> k :: acc) t [])
let of_list l = List.fold_left (fun s k -> add k s) empty l

let rec choose t =
  match t.node with
  | Empty -> None
  | Leaf k -> Some k
  | Branch (_, _, l, _) -> choose l

let min_elt = choose
let as_singleton t = match t.node with Leaf k -> Some k | _ -> None

(* Tags are unique per live node, so tag order is a total order consistent
   with [equal] (not the subset order, and not stable across processes). *)
let compare s t = Stdlib.compare s.tag t.tag
let hash t = (t.tag * 0x9e3779b1) land max_int

let pp ppf t =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Format.pp_print_int)
    (elements t)
