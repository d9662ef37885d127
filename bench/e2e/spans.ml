(* Reading Fsam_obs span trees. A traced op is one [Span.t] named "op": the
   bench opens it around the operation with [Span.with_timed], and the
   library's own spans (Driver's phase.*, Sparse's sparse.*, ...) land under
   it. [Driver.run] resets the span buffer at entry, but a reset only drops
   completed roots, never a span still open, so the op keeps them. A span
   whose interval was measured another way (the daemon's own timing of a
   request, the time before the Driver's first span) is built with [make].

   A span's self time is its duration minus the time its direct children
   cover. The ledger attributes each op's wall to the self times of the
   spans under it; the op's own self time is what no span accounts for. *)

module Span = Fsam_obs.Span

let now = Fsam_obs.Monotonic.now_s

(* [Span.start_s] is a wall-clock instant: a fixed epoch plus a monotonic
   offset. The same construction places the bench's monotonic readings. *)
let epoch = Unix.gettimeofday () -. now ()
let wall_of_mono t = epoch +. t

let make ?(children = []) name ~start_s ~dur_s =
  { Span.name; start_s; dur_s; cpu_s = 0.; minor_words = 0.; major_words = 0.; children }

let self_s (s : Span.t) =
  List.fold_left (fun acc (c : Span.t) -> acc -. c.Span.dur_s) s.Span.dur_s s.Span.children

(* [(name, sum of [f], count)] over every span of a forest, first-seen order *)
let by_name f forest =
  let tbl = Hashtbl.create 64 and order = ref [] in
  let rec go (s : Span.t) =
    (match Hashtbl.find_opt tbl s.Span.name with
    | Some (x, n) -> Hashtbl.replace tbl s.Span.name (x +. f s, n + 1)
    | None ->
      order := s.Span.name :: !order;
      Hashtbl.replace tbl s.Span.name (f s, 1));
    List.iter go s.Span.children
  in
  List.iter go forest;
  List.rev_map
    (fun name ->
      let x, n = Hashtbl.find tbl name in
      (name, x, n))
    !order

type ledger = {
  ops : int;
  op_s : float;  (** mean op wall *)
  rows : (string * float) list;  (** span name -> mean self seconds per op *)
  unattributed_s : float;  (** mean self time of the op roots *)
}

let ledger ops =
  let n = float_of_int (max 1 (List.length ops)) in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0. ops /. n in
  {
    ops = List.length ops;
    op_s = sum (fun s -> s.Span.dur_s);
    rows =
      List.map
        (fun (name, x, _) -> (name, x /. n))
        (by_name self_s (List.concat_map (fun s -> s.Span.children) ops));
    unattributed_s = sum self_s;
  }

let pp_ledger oc l =
  Printf.fprintf oc "ledger: %d ops, %.6f s per op\n" l.ops l.op_s;
  Printf.fprintf oc "  %-34s %14s %8s\n" "span (self time)" "s per op" "share";
  let row name x =
    Printf.fprintf oc "  %-34s %14.6f %7.1f%%\n" name x (100. *. x /. Float.max 1e-12 l.op_s)
  in
  List.iter (fun (name, x) -> row name x) l.rows;
  row "(unattributed)" l.unattributed_s
