(* edit-mid and query-mid: one resident daemon, driven line by line through
   [Protocol.handle_line] the way `fsam serve` drives it, by one
   closed-loop client (the next request goes out when the reply is in).

   A request's latency covers what the daemon does per line: parse the
   request, run the op, render the reply line. Building the request line
   happens before the clock starts. *)

module P = Fsam_serve.Protocol
module Engine = Fsam_serve.Engine
module J = Fsam_obs.Json
module D = Fsam_core.Driver
module Span = Fsam_obs.Span
module Pretty = Fsam_frontend.Pretty
module Parser = Fsam_frontend.Parser

type client = { srv : P.t; eng : Engine.t; mutable id : int }

type reply = {
  json : J.t;
  t0 : float;
  t1 : float;
  bytes : int;  (** rendered reply line *)
  ok : bool;
  server_s : float;  (** the daemon's own timing of the request ("us") *)
  op : Span.t option;  (** traced requests only *)
}

let wall r = r.t1 -. r.t0

let create () =
  let eng = Engine.create () in
  { srv = P.create eng; eng; id = 0 }

(* A traced request runs in an "op" span, and the Driver's spans of an edit
   land under it. Only while no async edit is in flight: the span stack is
   process-global, and the edit domain's Driver run pushes onto it. *)
let request ?(traced = false) c fields =
  c.id <- c.id + 1;
  let line = J.to_string ~minify:true (J.Obj (("id", J.Int c.id) :: fields)) in
  let handle () =
    let json = P.handle_line c.srv line in
    (json, String.length (J.to_string ~minify:true json))
  in
  let t0 = Spans.now () in
  let (json, bytes), op =
    if traced then
      let r, op = Span.with_timed ~name:"op" handle in
      (r, Some op)
    else (handle (), None)
  in
  let t1 = Spans.now () in
  let server_s =
    match J.member "us" json with Some (J.Int us) -> float_of_int us /. 1e6 | _ -> t1 -. t0
  in
  { json; t0; t1; bytes; ok = J.member "ok" json = Some (J.Bool true); server_s; op }

let num j key =
  match J.member key j with
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | _ -> 0.

let flag j key = J.member key j = Some (J.Bool true)
let obj j key = match J.member key j with Some (J.Obj _ as o) -> Some o | _ -> None
let error_of r = match obj r.json "error" with Some e -> J.to_string ~minify:true e | None -> ""

(* A span of a request's interval, from the bench's clock. *)
let span_of ?children name r ~dur_s =
  Spans.make ?children name ~start_s:(Spans.wall_of_mono r.t0) ~dur_s

(* The daemon has no span around what an edit does before the Driver's
   first span: request parsing, the function splice, the whole-program
   re-lower, [Serve.Diff] and IR validation. That interval, from
   [start_s] to the first of [children], becomes "edit.prepare". *)
let with_prepare ~start_s children =
  match children with
  | (first : Span.t) :: _ ->
    Spans.make "edit.prepare" ~start_s ~dur_s:(first.Span.start_s -. start_s) :: children
  | [] -> []

(* -- set-up ----------------------------------------------------------------- *)

(* Set-up is generating the program and the daemon's "load" reply. It is
   timed [reps] times, each in a fresh process; the last one stays resident
   as the daemon under test. *)
let setup ~size ~reps =
  let params = Inputs.serve_program size in
  let once () =
    let t0 = Spans.now () in
    let source = Fsam_workloads.Minic_synth.generate params in
    let c = create () in
    let r = request c [ ("op", J.String "load"); ("source", J.String source) ] in
    if not r.ok then failwith ("load failed: " ^ error_of r);
    (Spans.now () -. t0, c, source)
  in
  let others =
    List.init (reps - 1) (fun _ ->
        match Proc.in_child (fun () -> let s, _, _ = once () in s) with
        | Ok s -> s
        | Error e -> failwith e)
  in
  let s, c, source = once () in
  (Stat.median (s :: others), c, source)

(* -- the closing checks ------------------------------------------------------ *)

type ending = {
  rss_kb : int;  (** peak RSS of the measured part *)
  gc : Gc.stat;
  races : int;
  races_span : Span.t option;  (** the report, if this request computed it *)
  errors : string list;
}

(* Ask for the race report, then hold the final generation against a cold
   rebuild of the source the client believes it has edited into. *)
let finish c ~ast =
  let rss_kb = Proc.vm_hwm_kb () in
  let gc = Gc.quick_stat () in
  let first = not (Engine.races_cached c.eng) in
  let r = request c [ ("op", J.String "races") ] in
  let races =
    match J.member "races" r.json with
    | Some (J.List l) ->
      List.map
        (fun j ->
          ( int_of_float (num j "store"),
            int_of_float (num j "access"),
            int_of_float (num j "obj"),
            flag j "both_writes" ))
        l
    | _ -> []
  in
  let source = Pretty.to_string ast in
  let errors =
    (if r.ok then [] else [ "races request failed: " ^ error_of r ])
    @ (if Engine.source c.eng = source then []
       else [ "daemon source differs from the edited source" ])
    @ Check.same_as_cold ~resident:(Engine.driver c.eng) ~races ~source
  in
  {
    rss_kb;
    gc;
    races = List.length races;
    races_span = (if first then Some (span_of "races.detect" r ~dur_s:r.server_s) else None);
    errors;
  }

(* -- the traced result ---------------------------------------------------------- *)

let edit_facts r =
  let inc = obj r.json "incremental" and ph = obj r.json "phases" in
  let dirty =
    match inc with Some i -> num i "dirty_units" /. Float.max 1. (num i "units") | None -> 1.
  in
  let reuse =
    match ph with
    | Some p ->
      let keys = [ "andersen_warm"; "tm_reused"; "mhp_reused"; "locks_reused"; "svfg_patched" ] in
      float_of_int (List.length (List.filter (flag p) keys)) /. float_of_int (List.length keys)
    | None -> 0.
  in
  let fallbacks =
    match J.member "fallbacks" r.json with Some (J.List l) -> float_of_int (List.length l) | _ -> 0.
  in
  [ ("edit.dirty_frac", dirty); ("edit.reuse_frac", reuse); ("edit.fallbacks", fallbacks) ]

let pct a b = 100. *. ((a /. b) -. 1.)

(* [gens]: work counters of the generations the traced edits installed
   (the final generation's when there are none). *)
let traced_result c ~fin ~gc0 ~n_ops ~ops ~others ~gens ~edits ~untraced_wall =
  let mean f = Stat.mean (List.map f ops) in
  {
    Layers.ops;
    others = others @ Option.to_list fin.races_span;
    counts = (if gens = [] then [ Layers.counts (Engine.driver c.eng) ] else gens);
    races = float_of_int fin.races;
    edit = List.map edit_facts edits;
    gc_major_per_op = float_of_int (fin.gc.Gc.major_collections - gc0) /. float_of_int n_ops;
    top_heap_words = fin.gc.Gc.top_heap_words;
    closure_pct = pct (mean Layers.attributed) untraced_wall;
    overhead_pct = pct (mean (fun op -> op.Span.dur_s)) untraced_wall;
  }

let summary_lines workload ~setup_s lat_ms =
  Printf.printf "%s: setup %.3f s; %d ops, mean %.4f ms;" workload setup_s (List.length lat_ms)
    (Stat.mean lat_ms);
  List.iter
    (fun p -> Printf.printf " p%g %.4f" p (Stat.percentile lat_ms p))
    [ 50.; 75.; 80.; 85.; 90.; 95.; 99.; 99.9 ];
  print_newline ()

let e2e_metrics ~setup_s ~rss_kb lat_ms =
  [
    ("setup_s", setup_s, "s");
    ("op_p50_ms", Stat.median lat_ms, "ms");
    ("op_p90_ms", Stat.percentile lat_ms 90., "ms");
    ("ops_per_s", 1000. /. Stat.mean lat_ms, "1/s");
    ("peak_rss_mb", float_of_int rss_kb /. 1024., "MB");
  ]

(* -- edit-mid ----------------------------------------------------------------- *)

type edit = { e_reply : reply; e_traced : bool }

let edit_mid ~size ~seed ~seconds ~traced ~trace_dir =
  let setup_s, c, source = setup ~size ~reps:5 in
  let rng = Random.State.make [| seed; 0xed17 |] in
  let ast = ref (Parser.parse_string source) in
  let fns = Inputs.chain_fns rng !ast in
  let min_edits = 4 in
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let t_end = Spans.now () +. seconds in
  let edits = ref [] and gens = ref [] in
  let i = ref 0 in
  while Spans.now () < t_end || !i < min_edits do
    (* edits come in pairs on one function, a change and its follow-up,
       both of the same kind; a traced run traces one edit of each pair,
       alternating which, so its traced and untraced edits match *)
    let pair = !i / 2 in
    let fn = fns.(pair mod Array.length fns) in
    let f = Inputs.edit_of ~i:pair (Inputs.find_fn !ast fn) in
    let e_traced = traced && !i mod 2 = pair mod 2 in
    let r =
      request ~traced:e_traced c
        [ ("op", J.String "edit"); ("fn", J.String fn); ("code", J.String (Inputs.fn_code f)) ]
    in
    ast := Inputs.splice !ast f;
    if e_traced && r.ok then gens := Layers.counts (Engine.driver c.eng) :: !gens;
    if not r.ok then Printf.printf "edit-mid: edit %d (%s) failed: %s\n" !i fn (error_of r);
    edits := { e_reply = r; e_traced } :: !edits;
    incr i
  done;
  let edits = List.rev !edits in
  let fin = finish c ~ast:!ast in
  List.iter (Printf.printf "edit-mid: check failed: %s\n") fin.errors;
  let failed =
    List.length (List.filter (fun e -> not e.e_reply.ok) edits)
    + if fin.errors = [] then 0 else 1
  in
  let lat_ms = List.map (fun e -> wall e.e_reply *. 1000.) edits in
  summary_lines "edit-mid" ~setup_s lat_ms;
  let metrics =
    if not traced then e2e_metrics ~setup_s ~rss_kb:fin.rss_kb lat_ms
    else begin
      let ok = List.filter (fun e -> e.e_reply.ok) edits in
      let ops =
        List.filter_map
          (fun e ->
            Option.map
              (fun (op : Span.t) ->
                { op with Span.children = with_prepare ~start_s:op.Span.start_s op.Span.children })
              e.e_reply.op)
          ok
      in
      let untraced = List.filter (fun e -> not e.e_traced) ok in
      Layers.report ~dir:trace_dir ~workload:"edit-mid"
        (traced_result c ~fin ~gc0 ~n_ops:(List.length edits) ~ops ~others:[] ~gens:!gens
           ~edits:(List.map (fun e -> e.e_reply) ok)
           ~untraced_wall:(Stat.mean (List.map (fun e -> wall e.e_reply) untraced)))
    end
  in
  (List.length edits + 1, failed, metrics)

(* -- query-mid ---------------------------------------------------------------- *)

type query = {
  q_class : string;  (** [Inputs.query_class], "races" split into first/cached *)
  q_reply : reply;
  q_busy : bool;  (** sent while an edit was in flight *)
  q_traced : bool;
}

let query_fields = function
  | Inputs.Pt_name v -> [ ("op", J.String "points-to"); ("var", J.String v) ]
  | Inputs.Pt_id v -> [ ("op", J.String "points-to"); ("var", J.String (string_of_int v)) ]
  | Inputs.Alias (a, b) ->
    [
      ("op", J.String "alias");
      ("a", J.String (string_of_int a));
      ("b", J.String (string_of_int b));
    ]
  | Inputs.Mhp (g1, g2) -> [ ("op", J.String "mhp"); ("g1", J.Int g1); ("g2", J.Int g2) ]
  | Inputs.Races -> [ ("op", J.String "races") ]

(* The spans of query-mid are built from timings, never opened: the async
   edit's domain owns the process-global span stack while it runs. A
   query's op has one child, the daemon's own timing of it. An async edit
   is a span from its request to its "edit-wait" reply, holding the span
   tree its Driver run left behind. *)
let query_mid ~size ~seed ~seconds ~traced ~trace_dir =
  let setup_s, c, source = setup ~size ~reps:5 in
  let rng = Random.State.make [| seed; 0x9e37 |] in
  let ast = ref (Parser.parse_string source) in
  let fns = Inputs.chain_fns rng !ast in
  let d0 = Engine.driver c.eng in
  let names = Inputs.var_names d0.D.prog in
  let n_vars = Fsam_ir.Prog.n_vars d0.D.prog and n_stmts = Fsam_ir.Prog.n_stmts d0.D.prog in
  (* every [cycle] queries an async edit starts; "edit-wait" follows
     [cycle / 5] queries later *)
  let cycle = match size with Inputs.Mid -> 1000 | Inputs.Tiny -> 100 in
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let queries = ref [] and edit_replies = ref [] and failures = ref 0 and attempted = ref 0 in
  let pending = ref None and n_edits = ref 0 in
  let ops = ref [] and async_edits = ref [] and gens = ref [] in
  let note r what =
    incr attempted;
    if not r.ok then begin
      incr failures;
      Printf.printf "query-mid: %s failed: %s\n" what (error_of r)
    end
  in
  let start_edit ~traced =
    let fn = fns.(!n_edits mod Array.length fns) in
    let f = Inputs.edit_of ~i:!n_edits (Inputs.find_fn !ast fn) in
    (* the edit's Driver run is the only span writer until "edit-wait" *)
    if traced then Span.reset ();
    let r =
      request c
        [
          ("op", J.String "edit");
          ("fn", J.String fn);
          ("code", J.String (Inputs.fn_code f));
          ("async", J.Bool true);
        ]
    in
    note r "async edit";
    ast := Inputs.splice !ast f;
    incr n_edits;
    pending := Some (r, traced)
  in
  let wait_edit () =
    match !pending with
    | None -> ()
    | Some (start, traced) ->
      pending := None;
      let r = request c [ ("op", J.String "edit-wait") ] in
      note r "edit-wait";
      edit_replies := r :: !edit_replies;
      if traced && r.ok then begin
        let start_s = Spans.wall_of_mono start.t0 in
        async_edits :=
          Spans.make "edit.async" ~start_s ~dur_s:(r.t1 -. start.t0)
            ~children:(with_prepare ~start_s (Span.roots ()))
          :: !async_edits;
        gens := Layers.counts (Engine.driver c.eng) :: !gens
      end
  in
  let t_end = Spans.now () +. seconds in
  let k = ref 0 in
  (* at least one full cycle; traced, one traced and one untraced cycle *)
  let min_queries = if traced then 2 * cycle else cycle in
  while Spans.now () < t_end || !k < min_queries do
    let traced_cycle = traced && !k / cycle mod 2 = 0 in
    if !k mod cycle = 0 then start_edit ~traced:traced_cycle;
    if !k mod cycle = cycle / 5 then wait_edit ();
    let busy = Engine.busy c.eng in
    let q = Inputs.draw_query rng ~names ~n_vars ~n_stmts ~busy in
    let q_class =
      match q with
      | Inputs.Races -> if Engine.races_cached c.eng then "races_cached" else "races_first"
      | q -> Inputs.query_class q
    in
    let r = request c (query_fields q) in
    note r q_class;
    if traced_cycle then begin
      let layer = if q_class = "races_first" then "races.detect" else "protocol." ^ q_class in
      ops := span_of "op" r ~dur_s:(wall r) ~children:[ span_of layer r ~dur_s:r.server_s ] :: !ops
    end;
    (* drop the reply tree: a race report is hundreds of KB, and keeping
       thousands of them would dominate the peak RSS being measured *)
    let r = { r with json = J.Null } in
    queries := { q_class; q_reply = r; q_busy = busy; q_traced = traced_cycle } :: !queries;
    incr k
  done;
  wait_edit ();
  let queries = List.rev !queries in
  let fin = finish c ~ast:!ast in
  List.iter (Printf.printf "query-mid: check failed: %s\n") fin.errors;
  let lat_ms = List.map (fun q -> wall q.q_reply *. 1000.) queries in
  summary_lines "query-mid" ~setup_s lat_ms;
  let by pred = List.map (fun q -> wall q.q_reply) (List.filter pred queries) in
  let us l = 1e6 *. Stat.mean l in
  List.iter
    (fun cls ->
      let l = by (fun q -> q.q_class = cls) in
      if l <> [] then
        Printf.printf "query-mid: protocol.%s_us %.2f (n=%d)\n" cls (us l) (List.length l))
    [ "points_to_name"; "points_to_id"; "alias"; "mhp"; "races_cached"; "races_first" ];
  Printf.printf
    "query-mid: protocol.query_inflight_us %.2f, protocol.query_idle_us %.2f, \
     protocol.edit_wait_ms %.3f, protocol.reply_bytes %.1f, %d edits\n"
    (us (by (fun q -> q.q_busy)))
    (us (by (fun q -> not q.q_busy)))
    (1000. *. Stat.mean (List.map wall !edit_replies))
    (Stat.mean (List.map (fun q -> float_of_int q.q_reply.bytes) queries))
    !n_edits;
  let metrics =
    if not traced then e2e_metrics ~setup_s ~rss_kb:fin.rss_kb lat_ms
    else
      Layers.report ~dir:trace_dir ~workload:"query-mid"
        (traced_result c ~fin ~gc0 ~n_ops:(List.length queries) ~ops:(List.rev !ops)
           ~others:(List.rev !async_edits) ~gens:!gens
           ~edits:(List.filter (fun r -> r.ok) !edit_replies)
           ~untraced_wall:(Stat.mean (by (fun q -> not q.q_traced))))
  in
  (!attempted + 1, !failures + (if fin.errors = [] then 0 else 1), metrics)
