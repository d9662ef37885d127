(* Deep-profiling state: the sparse solver's convergence curve, stall
   warnings, and derived views (span hotspots, per-lane utilization of the
   parallel regions). All recording happens on the main domain — worker
   domains only ever write their own Timeline ring. *)

type sample = {
  s_prop : int; (* solver propagations at sample time *)
  s_depth : int; (* worklist depth *)
  s_facts : int; (* cumulative points-to facts added *)
  s_facts_delta : int; (* facts added since the previous sample *)
  s_memo_hits : int; (* Iset union-memo hits in the interval *)
  s_memo_misses : int;
}

type stall = {
  st_prop : int; (* propagation count when the stall was flagged *)
  st_samples : int; (* consecutive zero-progress samples *)
}

let set_enabled = Timeline.set_enabled
let enabled = Timeline.enabled

let samples_rev : sample list ref = ref []
let stalls_rev : stall list ref = ref []
let sample_interval_ref = ref 0

let add_sample s = samples_rev := s :: !samples_rev
let add_stall st = stalls_rev := st :: !stalls_rev
let set_sample_interval n = sample_interval_ref := n
let sample_interval () = !sample_interval_ref
let samples () = List.rev !samples_rev
let stalls () = List.rev !stalls_rev

let reset () =
  samples_rev := [];
  stalls_rev := [];
  sample_interval_ref := 0;
  Timeline.reset ()

(* -- span hotspots --------------------------------------------------------- *)

(* Self time = a span's duration minus its direct children's: the report's
   unit of attribution, aggregated over every span with the same name. *)
type hotspot = {
  hs_name : string;
  hs_count : int;
  hs_wall_s : float; (* inclusive *)
  hs_self_wall_s : float; (* exclusive *)
  hs_cpu_s : float;
  hs_self_cpu_s : float;
}

let hotspots forest =
  let tbl : (string, hotspot) Hashtbl.t = Hashtbl.create 32 in
  let rec go (sp : Span.t) =
    let child_wall =
      List.fold_left (fun acc c -> acc +. c.Span.dur_s) 0. sp.Span.children
    in
    let child_cpu =
      List.fold_left (fun acc c -> acc +. c.Span.cpu_s) 0. sp.Span.children
    in
    let self_wall = Float.max 0. (sp.Span.dur_s -. child_wall) in
    let self_cpu = Float.max 0. (sp.Span.cpu_s -. child_cpu) in
    let cur =
      Option.value
        ~default:
          {
            hs_name = sp.Span.name;
            hs_count = 0;
            hs_wall_s = 0.;
            hs_self_wall_s = 0.;
            hs_cpu_s = 0.;
            hs_self_cpu_s = 0.;
          }
        (Hashtbl.find_opt tbl sp.Span.name)
    in
    Hashtbl.replace tbl sp.Span.name
      {
        cur with
        hs_count = cur.hs_count + 1;
        hs_wall_s = cur.hs_wall_s +. sp.Span.dur_s;
        hs_self_wall_s = cur.hs_self_wall_s +. self_wall;
        hs_cpu_s = cur.hs_cpu_s +. sp.Span.cpu_s;
        hs_self_cpu_s = cur.hs_self_cpu_s +. self_cpu;
      };
    List.iter go sp.Span.children
  in
  List.iter go forest;
  Hashtbl.fold (fun _ h acc -> h :: acc) tbl []
  |> List.sort (fun a b ->
         match compare b.hs_self_wall_s a.hs_self_wall_s with
         | 0 -> compare a.hs_name b.hs_name
         | c -> c)

(* -- per-region lane utilization ------------------------------------------ *)

type lane_stat = {
  ls_lane : int;
  ls_start_us : int;
  ls_stop_us : int;
  ls_busy_us : int;
  ls_lo : int;
  ls_hi : int; (* item key range of the chunk *)
  ls_items : int;
  ls_events : int;
  ls_dropped : int;
  ls_contention : int;
}

type region_stat = {
  rs_region : string;
  rs_wall_us : int; (* last chunk_stop minus first chunk_start *)
  rs_lanes : lane_stat list;
}

(* A lane may execute several blocks under the adaptive scheduler, so it
   records one chunk_start/stop pair per block: the lane's item range is
   the envelope of the block ranges, items and contention are summed over
   the stops, and the busy window runs from the first start to the last
   stop. Single-chunk rings (the chunked path) degenerate to the same
   values as before. *)
let lane_stat_of_ring (r : Timeline.ring) =
  let start_us = ref max_int
  and stop_us = ref min_int
  and lo = ref max_int
  and hi = ref 0
  and items = ref 0
  and contention = ref 0 in
  List.iter
    (fun (t, k, a, b) ->
      if k = Timeline.k_chunk_start then begin
        if t < !start_us then start_us := t;
        if a < !lo then lo := a;
        if b > !hi then hi := b
      end
      else if k = Timeline.k_chunk_stop then begin
        if t > !stop_us then stop_us := t;
        items := !items + a;
        contention := !contention + b
      end)
    (Timeline.events r);
  let lo = if !lo = max_int then ref 0 else lo in
  let start_us = if !start_us = max_int then 0 else !start_us in
  let stop_us = if !stop_us = min_int then start_us else !stop_us in
  {
    ls_lane = r.Timeline.lane;
    ls_start_us = start_us;
    ls_stop_us = stop_us;
    ls_busy_us = max 0 (stop_us - start_us);
    ls_lo = !lo;
    ls_hi = !hi;
    ls_items = !items;
    ls_events = Timeline.n_recorded r;
    ls_dropped = Timeline.dropped r;
    ls_contention = !contention;
  }

let regions () =
  let by_region : (string, lane_stat list) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (r : Timeline.ring) ->
      let ls = lane_stat_of_ring r in
      match Hashtbl.find_opt by_region r.Timeline.region with
      | Some l -> Hashtbl.replace by_region r.Timeline.region (ls :: l)
      | None ->
        order := r.Timeline.region :: !order;
        Hashtbl.replace by_region r.Timeline.region [ ls ])
    (Timeline.collected ());
  List.rev_map
    (fun region ->
      let lanes =
        List.sort (fun a b -> compare a.ls_lane b.ls_lane)
          (Hashtbl.find by_region region)
      in
      let first_start =
        List.fold_left (fun acc l -> min acc l.ls_start_us) max_int lanes
      in
      let last_stop = List.fold_left (fun acc l -> max acc l.ls_stop_us) 0 lanes in
      {
        rs_region = region;
        rs_wall_us = (if first_start = max_int then 0 else max 0 (last_stop - first_start));
        rs_lanes = lanes;
      })
    !order

let utilization_pct rs =
  match rs.rs_lanes with
  | [] -> 100
  | lanes ->
    let busy = List.fold_left (fun acc l -> acc + l.ls_busy_us) 0 lanes in
    let span = rs.rs_wall_us * List.length lanes in
    if span <= 0 then 100 else 100 * busy / span

let dominant_lane rs =
  match rs.rs_lanes with
  | [] -> None
  | l :: rest ->
    Some (List.fold_left (fun acc x -> if x.ls_busy_us > acc.ls_busy_us then x else acc) l rest)

(* -- JSON ------------------------------------------------------------------ *)

let schema = "fsam.profile/1"

let sample_json s =
  Json.Obj
    [
      ("prop", Json.Int s.s_prop);
      ("depth", Json.Int s.s_depth);
      ("facts", Json.Int s.s_facts);
      ("facts_delta", Json.Int s.s_facts_delta);
      ("memo_hits", Json.Int s.s_memo_hits);
      ("memo_misses", Json.Int s.s_memo_misses);
    ]

let stall_json st =
  Json.Obj
    [
      ("prop", Json.Int st.st_prop);
      ("samples", Json.Int st.st_samples);
    ]

let lane_json l =
  Json.Obj
    [
      ("lane", Json.Int l.ls_lane);
      ("start_us", Json.Int l.ls_start_us);
      ("stop_us", Json.Int l.ls_stop_us);
      ("busy_us", Json.Int l.ls_busy_us);
      ("lo", Json.Int l.ls_lo);
      ("hi", Json.Int l.ls_hi);
      ("items", Json.Int l.ls_items);
      ("events", Json.Int l.ls_events);
      ("dropped", Json.Int l.ls_dropped);
      ("contention", Json.Int l.ls_contention);
    ]

let region_json rs =
  Json.Obj
    [
      ("region", Json.String rs.rs_region);
      ("wall_us", Json.Int rs.rs_wall_us);
      ("utilization_pct", Json.Int (utilization_pct rs));
      ("lanes", Json.List (List.map lane_json rs.rs_lanes));
    ]

let to_json () =
  Json.Obj
    [
      ("schema", Json.String schema);
      ( "convergence",
        Json.Obj
          [
            ("sample_interval", Json.Int !sample_interval_ref);
            ("samples", Json.List (List.map sample_json (samples ())));
            ("stalls", Json.List (List.map stall_json (stalls ())));
          ] );
      ("regions", Json.List (List.map region_json (regions ())));
      ("timelines", Timeline.to_json ());
    ]
