module Obs = Fsam_obs
module Timeline = Obs.Timeline
module Mono = Obs.Monotonic

let available_jobs () = Domain.recommended_domain_count ()
let resolve_jobs j = if j <= 0 then available_jobs () else j

(* The sequential cutoff, in caller-supplied weight units (callers scale
   weights to roughly "one pairwise probe" each, ~50-200ns of work). The
   default is measured against Domain.spawn + join at ~100-300us per
   worker: 64k probes is several milliseconds of serial work, safely past
   the break-even point, while anything smaller loses more to spawn/merge
   than it gains — BENCH_par.json showed speedup_j4 ~= 0.14-0.23 on exactly
   those sub-millisecond regions. *)
let default_cutoff = 65536

let cutoff_ref = ref default_cutoff

let cutoff () = !cutoff_ref
let set_cutoff c = cutoff_ref := max 0 c

(* Chunk [i] of [k] near-equal contiguous pieces of [0, n). *)
let chunk_bounds ~n ~k i = (i * n / k, (i + 1) * n / k)

(* Upper bound on adaptive blocks: enough granularity for stealing to level
   any imbalance at realistic core counts, small enough that per-block
   bookkeeping (result slot, ring events, chunk-local memo tables) stays
   negligible. A constant — the decomposition must not depend on the
   machine. *)
let max_blocks = 256

(* Adaptive decomposition: weight-balanced contiguous blocks over [0, n),
   a pure function of (n, weights, cutoff) and NOTHING else — not [jobs],
   not the core count. Every jobs value therefore evaluates the same
   [f ~lo ~hi] calls on the same ranges, which is what keeps per-block memo
   caches, counters and results byte-identical across jobs; parallelism
   only changes which domain runs a block. Below the cutoff the whole range
   is one block: the caller stays on the serial no-spawn path. *)
let plan ?(weight = fun _ -> 1) ?cutoff:co ~n () =
  let co = match co with Some c -> max 0 c | None -> !cutoff_ref in
  if n <= 1 then [| 0; n |]
  else begin
    let prefix = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      prefix.(i + 1) <- prefix.(i) + max 0 (weight i)
    done;
    let w_total = prefix.(n) in
    if w_total < co then [| 0; n |]
    else begin
      (* block target ~ cutoff/8: the smallest parallel-worthy region still
         splits 8 ways, and bigger regions cap at [max_blocks] blocks *)
      let target = max 1 (co / 8) in
      let b = max 1 (min (min n max_blocks) (w_total / target)) in
      let bounds = Array.make (b + 1) 0 in
      bounds.(b) <- n;
      let i = ref 0 in
      for j = 1 to b - 1 do
        let t = j * w_total / b in
        while prefix.(!i) < t do
          incr i
        done;
        bounds.(j) <- !i
      done;
      bounds
    end
  end

type chunk_obs = {
  c_wall_us : int;
  c_items : int;
  c_contention : int;
  c_ring : Timeline.ring option;
}

let record_metrics ~label ~jobs ~k ~blocks ~wall_us chunks =
  let g name = Obs.Metrics.gauge (Printf.sprintf "par.%s.%s" label name) in
  (* a previous run of this region may have used more lanes: drop the whole
     per-domain family first so dead lanes' gauges don't linger *)
  Obs.Metrics.remove_matching
    (String.starts_with ~prefix:(Printf.sprintf "par.%s.domain" label));
  Obs.Metrics.set (g "jobs") jobs;
  Obs.Metrics.set (g "chunks") k;
  Obs.Metrics.set (g "blocks") blocks;
  Obs.Metrics.set (g "wall_us") wall_us;
  match chunks with
  | [] -> ()
  | c0 :: rest ->
    let mx = List.fold_left (fun a c -> max a c.c_wall_us) c0.c_wall_us rest
    and mn = List.fold_left (fun a c -> min a c.c_wall_us) c0.c_wall_us rest in
    Obs.Metrics.set (g "max_chunk_us") mx;
    Obs.Metrics.set (g "min_chunk_us") mn;
    Obs.Metrics.set (g "imbalance_pct") (if mx <= 0 then 0 else 100 * (mx - mn) / mx);
    (* per-domain gauges: imbalance is attributable, not just measured *)
    List.iteri
      (fun i c ->
        let gd name = g (Printf.sprintf "domain%d.%s" i name) in
        Obs.Metrics.set (gd "wall_us") c.c_wall_us;
        Obs.Metrics.set (gd "items") c.c_items;
        Obs.Metrics.set (gd "intern_contention") c.c_contention;
        match c.c_ring with
        | Some r -> Obs.Metrics.set (gd "events") (Timeline.n_recorded r)
        | None -> ())
      chunks

(* Merge events on lane 0, then absorb all rings in lane order so the
   collected timeline is deterministic; the joins happened-before this
   point, so worker rings are safely readable. *)
let finish_obs ~label ~jobs ~k ~blocks ~wall_us obs =
  (match obs with
  | { c_ring = Some r0; _ } :: rest ->
    List.iteri
      (fun i c -> Timeline.record r0 ~kind:Timeline.k_merge ~a:(i + 1) ~b:c.c_wall_us)
      rest
  | _ -> ());
  List.iter (fun c -> match c.c_ring with Some r -> Timeline.absorb r | None -> ()) obs;
  record_metrics ~label ~jobs ~k ~blocks ~wall_us obs

(* -- adaptive execution: work-stealing over the planned blocks ------------- *)

(* Each worker owns a deque of contiguous BLOCK indices packed into one
   atomic int as (lo lsl 20) lor hi. The owner pops from the lo end, a
   thief from the hi end; both go through compare_and_set on the packed
   word, and since ranges only ever shrink there is no ABA. Which domain
   runs a block is racy — everything keyed by block index (results, ring
   events per block, memo caches inside [f]) is not. *)
let pack lo hi = (lo lsl 20) lor hi
let range v = (v lsr 20, v land 0xFFFFF)

let rec pop_own dq =
  let v = Atomic.get dq in
  let lo, hi = range v in
  if lo >= hi then None
  else if Atomic.compare_and_set dq v (pack (lo + 1) hi) then Some lo
  else pop_own dq

let rec pop_steal dq =
  let v = Atomic.get dq in
  let lo, hi = range v in
  if lo >= hi then None
  else if Atomic.compare_and_set dq v (pack lo (hi - 1)) then Some (hi - 1)
  else pop_steal dq

let run_blocks ~label ~jobs ~bounds f =
  let nb = Array.length bounds - 1 in
  let k = max 1 (min jobs nb) in
  let profiling = Timeline.enabled () in
  let t_start = Mono.now_us () in
  let results = Array.make nb None in
  let errors = Array.make nb None in
  let deques =
    Array.init k (fun w ->
        let lo, hi = chunk_bounds ~n:nb ~k w in
        Atomic.make (pack lo hi))
  in
  (* Worker w: drain the own deque front-to-back (preserving the serial
     block order for cache locality), then scan the others round-robin and
     steal from the tail. Blocks are only ever removed, so a full empty
     scan means the region is drained. A block that raises records its
     exception and the worker moves on — every block still runs exactly
     once, and the failure of the smallest block index is re-raised after
     the join (deterministic, like the serial traversal's first failure). *)
  let worker w () =
    let ring =
      if profiling then Some (Timeline.create_ring ~region:label ~lane:w ()) else None
    in
    Timeline.set_current ring;
    let c0 = Fsam_dsa.Iset.intern_contention () in
    let t0 = Mono.now_us () in
    let items = ref 0 in
    let run_block b =
      let lo = bounds.(b) and hi = bounds.(b + 1) in
      (match ring with
      | Some r -> Timeline.record r ~kind:Timeline.k_chunk_start ~a:lo ~b:hi
      | None -> ());
      (match f ~lo ~hi with
      | r -> results.(b) <- Some r
      | exception e -> errors.(b) <- Some e);
      items := !items + (hi - lo);
      match ring with
      | Some r -> Timeline.record r ~kind:Timeline.k_chunk_stop ~a:(hi - lo) ~b:0
      | None -> ()
    in
    Fun.protect
      ~finally:(fun () -> Timeline.set_current None)
      (fun () ->
        let rec own () =
          match pop_own deques.(w) with
          | Some b ->
            run_block b;
            own ()
          | None -> rob 1
        and rob off =
          if off < k then
            match pop_steal deques.((w + off) mod k) with
            | Some b ->
              run_block b;
              own ()
            | None -> rob (off + 1)
        in
        own ();
        let dc = Fsam_dsa.Iset.intern_contention () - c0 in
        (match ring with
        | Some r ->
          if dc > 0 then Timeline.record r ~kind:Timeline.k_contention ~a:dc ~b:0;
          (* trailing stop carries the lane's contention; items already
             summed from the per-block stops *)
          Timeline.record r ~kind:Timeline.k_chunk_stop ~a:0 ~b:dc
        | None -> ());
        {
          c_wall_us = Mono.elapsed_us ~since_us:t0;
          c_items = !items;
          c_contention = dc;
          c_ring = ring;
        })
  in
  let obs =
    if k = 1 then [ worker 0 () ]
    else begin
      let domains = List.init (k - 1) (fun i -> Domain.spawn (worker (i + 1))) in
      let o0 =
        match worker 0 () with
        | o -> o
        | exception e ->
          (* worker bodies trap [f]'s exceptions per block; anything that
             escapes here is infrastructure failure — join and re-raise *)
          List.iter (fun d -> try ignore (Domain.join d) with _ -> ()) domains;
          raise e
      in
      o0 :: List.map Domain.join domains
    end
  in
  let wall_us = Mono.elapsed_us ~since_us:t_start in
  finish_obs ~label ~jobs ~k ~blocks:nb ~wall_us obs;
  Array.iter (function Some e -> raise e | None -> ()) errors;
  List.init nb (fun b -> Option.get results.(b))

let run_chunks ?(label = "par") ?weight ?cutoff ~jobs ~n f =
  run_blocks ~label ~jobs:(resolve_jobs jobs) ~bounds:(plan ?weight ?cutoff ~n ()) f
