(* NDJSON request/reply protocol of [fsam serve]: one JSON object per line
   on stdin/stdout (or a Unix socket, or a batch file). Every reply carries
   the request id, an "ok" flag, the per-request wall time in microseconds,
   and either the result fields or a structured {code, message} error. *)

module J = Fsam_obs.Json
module Mono = Fsam_obs.Monotonic
module T = Fsam_core.Telemetry
module D = Fsam_core.Driver
module Prog = Fsam_ir.Prog
module Races = Fsam_core.Races
module Ex = Fsam_core.Explain
module Iset = Fsam_dsa.Iset

type t = {
  eng : Engine.t;
  crash_telemetry : string option;
      (** armed around each request so a crash mid-analysis still flushes a
          partial telemetry document; disarmed (idempotently) on reply *)
  stats : Stats.t;
      (** per-request telemetry: latency histograms, byte/error counters,
          flight recorder, slow-query log — survives pipeline registry
          resets *)
  mutable requests : int;
      (** doubles as the monotonic request id ([seq]) echoed in every
          reply *)
  mutable last_edit : Engine.edit_info option;
      (** most recent completed edit — its per-phase breakdown is echoed in
          [status] replies *)
  mutable shutdown : bool;
}

let create ?crash_telemetry ?stats eng =
  {
    eng;
    crash_telemetry;
    stats = (match stats with Some s -> s | None -> Stats.create ~slow_ms:(-1.) ());
    requests = 0;
    last_edit = None;
    shutdown = false;
  }

let stats t = t.stats

(* -- request plumbing ------------------------------------------------------ *)

exception Err of string * string  (** (code, message) *)

let bad msg = raise (Err ("bad_request", msg))

let field req name = J.member name req

let str_field req name =
  match field req name with Some (J.String s) -> Some s | _ -> None

let int_field req name =
  match field req name with Some (J.Int i) -> Some i | _ -> None

let bool_field req name =
  match field req name with Some (J.Bool b) -> Some b | _ -> None

let require_str req name =
  match str_field req name with
  | Some s -> s
  | None -> bad (Printf.sprintf "missing string field %S" name)

let require_int req name =
  match int_field req name with
  | Some i -> i
  | None -> bad (Printf.sprintf "missing integer field %S" name)

let driver srv =
  if Engine.loaded srv.eng then Engine.driver srv.eng
  else raise (Err ("no_program", "no program loaded — send a \"load\" request first"))

(* Generation-pinned concurrency policy: while an asynchronous edit is in
   flight, pure reads (points-to, alias, mhp, status, races) keep
   answering from the resident — immutable — generation. Anything that
   would replace the generation or touch the process-global metrics /
   span registries (which the edit's pipeline run owns) must wait. *)
let require_not_busy srv what =
  if Engine.busy srv.eng then
    raise
      (Err
         ( "edit_in_flight",
           Printf.sprintf
             "%s must wait for the in-flight edit — send \"edit-wait\" first" what ))

let lookup srv kind what s =
  match Prog.lookup (driver srv).D.prog kind s with
  | Some i -> i
  | None -> bad (Printf.sprintf "unknown %s %S" what s)

let var_of srv s = lookup srv `Var "variable" s
let obj_of srv s = lookup srv `Obj "object" s

let gid_of srv req name =
  let d = driver srv in
  let g = require_int req name in
  if g < 0 || g >= Prog.n_stmts d.D.prog then
    bad (Printf.sprintf "%s: gid %d out of range (0..%d)" name g (Prog.n_stmts d.D.prog - 1));
  g

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error e -> raise (Err ("io_error", e))

(* -- result rendering ------------------------------------------------------ *)

let obj_json prog o = J.Obj [ ("id", J.Int o); ("name", J.String (Prog.obj_name prog o)) ]

let work_json (w : Engine.work) =
  J.Obj
    [
      ("andersen_propagations", J.Int w.Engine.wk_andersen_props);
      ("mhp_summaries", J.Int w.Engine.wk_mhp_summaries);
      ("svfg_pairs", J.Int w.Engine.wk_svfg_pairs);
      ("sparse_propagations", J.Int w.Engine.wk_sparse_props);
    ]

(* reply key -> span name of the warm run; plan and preload are parts of
   the solve *)
let phase_walls =
  [
    ("andersen_s", "phase.pre");
    ("threads_s", "phase.threads");
    ("mhp_s", "phase.mhp");
    ("locks_s", "phase.locks");
    ("svfg_s", "phase.svfg");
    ("sparse_s", "phase.solve");
    ("solve_plan_s", "solve.plan");
    ("solve_preload_s", "solve.preload");
  ]

let phases_json (p : Engine.phase_summary) =
  J.Obj
    ([
       ("andersen_warm", J.Bool p.Engine.ph_andersen_warm);
       ("tm_reused", J.Bool p.Engine.ph_tm_reused);
       ("mhp_reused", J.Bool p.Engine.ph_mhp_reused);
       ("locks_reused", J.Bool p.Engine.ph_locks_reused);
       ("svfg_patched", J.Bool p.Engine.ph_svfg_patched);
     ]
    @ (match p.Engine.ph_svfg_stats with
      | Some s ->
        [
          ( "svfg_patch",
            J.Obj
              [
                ("dirty_fns", J.Int s.Fsam_memssa.Svfg.ps_dirty_fns);
                ("dirty_objs", J.Int s.Fsam_memssa.Svfg.ps_dirty_objs);
                ("removed_edges", J.Int s.Fsam_memssa.Svfg.ps_removed);
                ("added_edges", J.Int s.Fsam_memssa.Svfg.ps_added);
              ] );
        ]
      | None -> [])
    @ List.map
        (fun (k, name) -> (k, J.Float (Fsam_obs.Span.duration name p.Engine.ph_run)))
        phase_walls)

let load_info_json (i : Engine.load_info) =
  [
    ("funcs", J.Int i.Engine.l_funcs);
    ("stmts", J.Int i.Engine.l_stmts);
    ("vars", J.Int i.Engine.l_vars);
    ("objs", J.Int i.Engine.l_objs);
    ("races", J.Int i.Engine.l_races);
    ("propagations", J.Int i.Engine.l_propagations);
    ("svfg_digest", J.String i.Engine.l_digest);
    ("work", work_json i.Engine.l_work);
  ]

let edit_info_json (e : Engine.edit_info) =
  [
    ("mode", J.String (match e.Engine.e_mode with `Incremental -> "incremental" | `Cold -> "cold"));
    ("propagations", J.Int e.Engine.e_propagations);
    ("work", work_json e.Engine.e_work);
  ]
  @ (match e.Engine.e_reason with
    | Some r -> [ ("fallback_reason", J.String r) ]
    | None -> [])
  @ (match e.Engine.e_fallbacks with
    | [] -> []
    | keys -> [ ("fallbacks", J.List (List.map (fun k -> J.String k) keys)) ])
  @ (match e.Engine.e_phases with
    | Some p -> [ ("phases", phases_json p) ]
    | None -> [])
  @ (match e.Engine.e_stats with
    | Some s ->
      [
        ( "incremental",
          J.Obj
            [
              ("units", J.Int s.Incremental.s_units);
              ("dirty_units", J.Int s.Incremental.s_dirty);
              ("seeds", J.Int s.Incremental.s_seeds);
              ("cascade_rounds", J.Int s.Incremental.s_cascades);
              ("copied_vars", J.Int s.Incremental.s_copied_vars);
              ("copied_facts", J.Int s.Incremental.s_copied_facts);
              ("changed_funcs", J.Int s.Incremental.s_changed_funcs);
            ] );
      ]
    | None -> [])
  @ (match e.Engine.e_cold_propagations with
    | Some p -> [ ("cold_propagations", J.Int p) ]
    | None -> [])
  @ (match e.Engine.e_cold_work with
    | Some w -> [ ("cold_work", work_json w) ]
    | None -> [])
  @
  match e.Engine.e_identical with
  | Some b -> [ ("identical", J.Bool b) ]
  | None -> []

let race_json prog (r : Races.race) =
  J.Obj
    [
      ("store", J.Int r.Races.store_gid);
      ("access", J.Int r.Races.access_gid);
      ("obj", J.Int r.Races.obj);
      ("obj_name", J.String (Prog.obj_name prog r.Races.obj));
      ("both_writes", J.Bool r.Races.both_writes);
    ]

(* -- op handlers (each returns the reply's result fields) ------------------- *)

let op_load srv req =
  require_not_busy srv "load";
  let source =
    match (str_field req "source", str_field req "path", str_field req "synth") with
    | Some s, None, None -> s
    | None, Some p, None -> read_file p
    | None, None, Some preset ->
      let params =
        match preset with
        | "quick" -> Fsam_workloads.Minic_synth.quick
        | "large" -> Fsam_workloads.Minic_synth.large
        | p -> bad (Printf.sprintf "unknown synth preset %S (quick, large)" p)
      in
      Fsam_workloads.Minic_synth.generate params
    | _ -> bad "load takes exactly one of \"source\", \"path\", \"synth\""
  in
  match Engine.load srv.eng source with
  | Ok info -> load_info_json info
  | Error e -> raise (Err ("parse_error", e))

let op_points_to srv req =
  let d = driver srv in
  let v = var_of srv (require_str req "var") in
  let pts = D.pt d v in
  [
    ("var", J.String (Prog.var_name d.D.prog v));
    ("var_id", J.Int v);
    ("objects", J.List (List.map (obj_json d.D.prog) (Iset.elements pts)));
  ]

let op_alias srv req =
  let d = driver srv in
  let a = var_of srv (require_str req "a") in
  let b = var_of srv (require_str req "b") in
  [ ("alias", J.Bool (D.alias d a b)) ]

let op_mhp srv req =
  let d = driver srv in
  let g1 = gid_of srv req "g1" and g2 = gid_of srv req "g2" in
  [ ("mhp", J.Bool (Fsam_mta.Mhp.mhp_stmt d.D.mhp g1 g2)) ]

let op_races srv =
  let d = driver srv in
  let rs = Engine.races srv.eng in
  [ ("count", J.Int (List.length rs)); ("races", J.List (List.map (race_json d.D.prog) rs)) ]

let op_explain srv req =
  let d = driver srv in
  require_not_busy srv "explain";
  if d.D.prov = None then
    raise
      (Err
         ( "provenance_disabled",
           "explain needs recorded provenance — start the server with --provenance" ));
  let kind = require_str req "query" in
  let result =
    match kind with
    | "why-pt" ->
      let v = var_of srv (require_str req "var") in
      let o = obj_of srv (require_str req "obj") in
      (match Ex.why_pt d v o with
      | Some chain -> Ex.chain_json d chain
      | None -> J.Null)
    | "why-mhp" ->
      let g1 = gid_of srv req "g1" and g2 = gid_of srv req "g2" in
      (match Ex.why_mhp d g1 g2 with Some j -> Ex.mhp_json d j | None -> J.Null)
    | "why-edge" ->
      let store = gid_of srv req "store" and access = gid_of srv req "access" in
      let o = obj_of srv (require_str req "obj") in
      Ex.edge_verdict_json d (Ex.why_edge d ~store ~obj:o ~access)
    | "why-race" ->
      let idx = require_int req "index" in
      let rs = Engine.races srv.eng in
      if idx < 0 || idx >= List.length rs then
        bad (Printf.sprintf "race index %d out of range (%d found)" idx (List.length rs));
      (match Ex.witness d (List.nth rs idx) with
      | Some w -> Ex.witness_json d w
      | None -> J.Null)
    | k -> bad (Printf.sprintf "unknown explain query %S" k)
  in
  [ ("query", J.String kind); ("result", result) ]

let op_edit srv req =
  if not (Engine.loaded srv.eng) then
    raise (Err ("no_program", "no program loaded — send a \"load\" request first"));
  require_not_busy srv "edit";
  let async = bool_field req "async" = Some true in
  let args =
    match (str_field req "fn", str_field req "code", str_field req "source") with
    | Some fn, Some code, None -> `Fn (fn, code)
    | None, None, Some source -> `Source source
    | _ -> bad "edit takes either \"fn\" + \"code\" or \"source\""
  in
  if async then begin
    let r =
      match args with
      | `Fn (fn, code) -> Engine.edit_fn_async srv.eng ~fn ~code
      | `Source source -> Engine.edit_source_async srv.eng source
    in
    match r with
    | Ok () -> [ ("started", J.Bool true); ("async", J.Bool true) ]
    | Error e -> raise (Err ("parse_error", e))
  end
  else begin
    let r =
      match args with
      | `Fn (fn, code) -> Engine.edit_fn srv.eng ~fn ~code
      | `Source source -> Engine.edit_source srv.eng source
    in
    match r with
    | Ok info ->
      srv.last_edit <- Some info;
      edit_info_json info
    | Error e -> raise (Err ("parse_error", e))
  end

let op_edit_wait srv =
  match Engine.edit_wait srv.eng with
  | Ok info ->
    srv.last_edit <- Some info;
    edit_info_json info
  | Error "no edit in flight" -> raise (Err ("bad_request", "no edit in flight"))
  | Error e -> raise (Err ("parse_error", e))

let op_snapshot srv req =
  if not (Engine.loaded srv.eng) then
    raise (Err ("no_program", "no program loaded — nothing to snapshot"));
  require_not_busy srv "snapshot";
  match Engine.snapshot srv.eng (require_str req "path") with
  | Ok () -> [ ("saved", J.Bool true) ]
  | Error e -> raise (Err ("snapshot_error", e))

let op_restore srv req =
  require_not_busy srv "restore";
  match Engine.restore srv.eng (require_str req "path") with
  | Ok info -> load_info_json info
  | Error e -> raise (Err ("snapshot_error", e))

let serve_fallback_json srv =
  [
    ("serve.fallback_cold", J.Int (Engine.fallback_total srv.eng));
    ( "serve.fallback_reasons",
      J.Obj (List.map (fun (k, n) -> (k, J.Int n)) (Engine.fallback_counts srv.eng)) );
  ]

(* Engine-derived gauges touch resident-generation structures, so they are
   refreshed here — on the protocol thread — and the scraper domain serves
   the last refresh. [Iset.live_nodes] walks the striped intern table, so
   it only runs on the explicit observability ops, never per request. *)
let refresh_engine_gauges srv =
  Stats.refresh_engine_gauges srv.stats
    ~generation:(Engine.generation srv.eng)
    ~gen_age_us:(Engine.gen_age_us srv.eng)
    ~busy:(Engine.busy srv.eng) ~iset_live:(Iset.live_nodes ())

let op_status srv =
  refresh_engine_gauges srv;
  let ops =
    List.map
      (fun (op, count, us) -> (op, J.Obj [ ("count", J.Int count); ("us", J.Int us) ]))
      (Stats.op_totals srv.stats)
  in
  [
    ("loaded", J.Bool (Engine.loaded srv.eng));
    ("busy", J.Bool (Engine.busy srv.eng));
    ("requests", J.Int srv.requests);
    ("uptime_s", J.Float (Stats.uptime_s srv.stats));
    ("pid", J.Int (Unix.getpid ()));
    ("rss_kb", J.Int (Stats.rss_kb ()));
    ("generation", J.Int (Engine.generation srv.eng));
    ("generation_age_s", J.Float (float_of_int (Engine.gen_age_us srv.eng) /. 1e6));
  ]
  @ (if Engine.loaded srv.eng then begin
       let d = Engine.driver srv.eng in
       [
         ("funcs", J.Int (Prog.n_funcs d.D.prog));
         ("stmts", J.Int (Prog.n_stmts d.D.prog));
         ("vars", J.Int (Prog.n_vars d.D.prog));
         ("objs", J.Int (Prog.n_objs d.D.prog));
       ]
     end
     else [])
  @ serve_fallback_json srv
  @ (match srv.last_edit with
    | Some e -> [ ("last_edit", J.Obj (edit_info_json e)) ]
    | None -> [])
  @ [ ("ops", J.Obj ops) ]

(* the global registry describes the resident generation's last pipeline
   run; the engine-level fallback counters ride along under serve.* keys *)
let op_metrics srv =
  require_not_busy srv "metrics";
  [ ("metrics", Fsam_obs.Metrics.to_json ()); ("serve_metrics", Stats.to_json srv.stats) ]
  @ serve_fallback_json srv

(* Prometheus exposition: always includes the serve registry; the pipeline's
   global registry rides along only when no in-flight edit owns it, so the
   op — unlike [metrics] — never has to wait. *)
let op_prometheus srv =
  refresh_engine_gauges srv;
  let extra_regs = if Engine.busy srv.eng then [] else [ Fsam_obs.Metrics.global ] in
  [
    ("prometheus", J.String (Stats.to_prometheus ~extra_regs srv.stats));
    ("serve_metrics", Stats.to_json srv.stats);
    ("slow_logged", J.Int (Stats.slow_logged srv.stats));
  ]
  @ serve_fallback_json srv

let op_dump srv =
  [
    ( "flight",
      match Stats.flight srv.stats with
      | Some f -> Fsam_obs.Flight.to_json f
      | None -> J.Null );
  ]

(* -- dispatch -------------------------------------------------------------- *)

let ok_reply ~id ~seq ~us ~cpu_us fields =
  J.Obj
    (("id", id) :: ("ok", J.Bool true) :: ("seq", J.Int seq) :: ("us", J.Int us)
    :: ("cpu_us", J.Int cpu_us) :: fields)

let err_reply ~id ~seq ~us ~cpu_us code msg =
  J.Obj
    [
      ("id", id);
      ("ok", J.Bool false);
      ("seq", J.Int seq);
      ("us", J.Int us);
      ("cpu_us", J.Int cpu_us);
      ("error", J.Obj [ ("code", J.String code); ("message", J.String msg) ]);
    ]

(* The edit reply already carries its phase breakdown and dirty-function
   count (PR 9); the flight recorder and slow-query log lift them out of
   the result fields rather than recomputing. *)
let dirty_of_fields fields =
  match List.assoc_opt "incremental" fields with
  | Some (J.Obj kvs) -> (
    match List.assoc_opt "changed_funcs" kvs with Some (J.Int n) -> n | _ -> -1)
  | _ -> -1

let cpu_now_us () = int_of_float (Sys.time () *. 1e6)

let rec handle_request ?(depth = 0) ?(bytes_in = 0) srv req =
  let id = Option.value ~default:J.Null (field req "id") in
  let t0 = Mono.now_us () in
  let c0 = cpu_now_us () in
  srv.requests <- srv.requests + 1;
  let seq = srv.requests in
  (* arm the crash flush for the duration of the request: if the pipeline
     dies mid-edit the partial telemetry still lands on disk. Arming is
     idempotent; the disarm below must leave [T.armed () = false] between
     requests (asserted by the test suite). *)
  (match srv.crash_telemetry with Some p -> T.flush_at_exit p | None -> ());
  let finish fields_or_err =
    let us = Mono.elapsed_us ~since_us:t0 in
    let cpu_us = max 0 (cpu_now_us () - c0) in
    (match srv.crash_telemetry with Some _ -> T.mark_flushed () | None -> ());
    let op, reply, err, dirty, phases =
      match fields_or_err with
      | Ok (op, fields) ->
        ( op,
          ok_reply ~id ~seq ~us ~cpu_us fields,
          None,
          dirty_of_fields fields,
          List.assoc_opt "phases" fields )
      | Error (op, code, msg) ->
        (op, err_reply ~id ~seq ~us ~cpu_us code msg, Some code, -1, None)
    in
    let bytes_out = String.length (J.to_string ~minify:true reply) in
    Stats.note srv.stats ~seq ~op ~us ~cpu_us ~ok:(err = None) ~err
      ~gen:(Engine.generation srv.eng) ~dirty ~bytes_in ~bytes_out ~req ~phases;
    reply
  in
  let op = match str_field req "op" with Some op -> op | None -> "" in
  finish
    (try
       match op with
       | "" -> Error ("?", "bad_request", "missing \"op\" field")
       | "load" -> Ok (op, op_load srv req)
       | "points-to" -> Ok (op, op_points_to srv req)
       | "alias" -> Ok (op, op_alias srv req)
       | "mhp" -> Ok (op, op_mhp srv req)
       | "races" -> Ok (op, op_races srv)
       | "explain" -> Ok (op, op_explain srv req)
       | "edit" -> Ok (op, op_edit srv req)
       | "edit-wait" -> Ok (op, op_edit_wait srv)
       | "snapshot" -> Ok (op, op_snapshot srv req)
       | "restore" -> Ok (op, op_restore srv req)
       | "status" -> Ok (op, op_status srv)
       | "metrics" -> Ok (op, op_metrics srv)
       | "stats" -> Ok (op, op_prometheus srv)
       | "dump" -> Ok (op, op_dump srv)
       | "batch" ->
         if depth > 0 then Error (op, "bad_request", "nested batch requests")
         else (
           match field req "requests" with
           | Some (J.List reqs) ->
             Ok
               ( op,
                 [
                   ( "replies",
                     J.List (List.map (handle_request ~depth:1 srv) reqs) );
                 ] )
           | _ -> Error (op, "bad_request", "batch needs a \"requests\" list"))
       | "shutdown" ->
         (* don't leave a spawned edit domain running across process exit *)
         if Engine.busy srv.eng then ignore (Engine.edit_wait srv.eng);
         srv.shutdown <- true;
         Ok (op, [ ("bye", J.Bool true) ])
       | op -> Error (op, "unknown_op", Printf.sprintf "unknown op %S" op)
     with
    | Err (code, msg) -> Error (op, code, msg)
    | e -> Error (op, "internal", Printexc.to_string e))

let handle_line srv line =
  match J.of_string line with
  | Ok req -> handle_request ~bytes_in:(String.length line) srv req
  | Error e ->
    srv.requests <- srv.requests + 1;
    err_reply ~id:J.Null ~seq:srv.requests ~us:0 ~cpu_us:0 "bad_request"
      ("invalid JSON: " ^ e)

(* -- server loops ---------------------------------------------------------- *)

let serve_channels srv ic oc =
  (try
     while not srv.shutdown do
       match input_line ic with
       | line ->
         if String.trim line <> "" then begin
           output_string oc (J.to_string ~minify:true (handle_line srv line));
           output_char oc '\n';
           flush oc
         end
       | exception End_of_file -> raise Exit
     done
   with Exit | Sys_error _ -> ());
  flush oc

let serve_stdio srv = serve_channels srv stdin stdout

let serve_batch srv path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> serve_channels srv ic stdout)

let serve_socket srv path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 1;
      (* a SIGUSR1 flight dump interrupts [accept] with EINTR — retry, the
         handler already ran at the safepoint *)
      let rec accept_retry () =
        try Unix.accept sock
        with Unix.Unix_error (Unix.EINTR, _, _) -> accept_retry ()
      in
      while not srv.shutdown do
        let fd, _ = accept_retry () in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> serve_channels srv ic oc)
      done)

(* -- out-of-band observability --------------------------------------------- *)

let flight_dump_json srv =
  J.Obj
    [
      ("schema", J.String "fsam.flightdump/1");
      ( "flight",
        match Stats.flight srv.stats with
        | Some f -> Fsam_obs.Flight.to_json f
        | None -> J.Null );
    ]

(* SIGUSR1 → flight dump on stderr. The handler runs at a safepoint of the
   protocol thread — the ring's single writer — so it never reads a torn
   entry. No-op on platforms without the signal. *)
let install_sigusr1 srv =
  try
    Sys.set_signal Sys.sigusr1
      (Sys.Signal_handle
         (fun _ ->
           prerr_endline (J.to_string ~minify:true (flight_dump_json srv));
           flush stderr))
  with Invalid_argument _ | Sys_error _ -> ()

(* The [--stats-socket] scraper endpoint: a spawned domain serving the
   Prometheus exposition — one scrape per connection — so monitoring never
   contends with query traffic. It renders only the serve registry (under
   its mutex) plus the domain-safe process gauges; engine-derived gauges
   are whatever the protocol thread last refreshed. *)
type stats_server = {
  ss_stop : bool Atomic.t;
  ss_sock : Unix.file_descr;
  ss_path : string;
  ss_domain : unit Domain.t;
}

let start_stats_socket srv path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 4;
  let stop = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          (* poll with a timeout so shutdown never hangs in [accept] *)
          match Unix.select [ sock ] [] [] 0.25 with
          | [ _ ], _, _ -> (
            match Unix.accept sock with
            | fd, _ ->
              (try
                 let text = Stats.to_prometheus srv.stats in
                 ignore (Unix.write_substring fd text 0 (String.length text))
               with Unix.Unix_error _ | Sys_error _ -> ());
              (try Unix.close fd with Unix.Unix_error _ -> ())
            | exception Unix.Unix_error _ -> ())
          | _ -> ()
          | exception Unix.Unix_error _ -> ()
        done)
  in
  { ss_stop = stop; ss_sock = sock; ss_path = path; ss_domain = dom }

let close_stats_socket ss =
  Atomic.set ss.ss_stop true;
  Domain.join ss.ss_domain;
  (try Unix.close ss.ss_sock with Unix.Unix_error _ -> ());
  try Unix.unlink ss.ss_path with Unix.Unix_error _ -> ()
