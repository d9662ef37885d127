(* Deep-profiling state: the sparse solver's convergence curve, stall
   warnings, and the span-hotspot view. Main-domain only. *)

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

let enabled_ref = ref false
let set_enabled b = enabled_ref := b
let enabled () = !enabled_ref

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
  sample_interval_ref := 0

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
    ]
