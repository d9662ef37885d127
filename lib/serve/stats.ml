(* Serve-side observability state: per-request latency histograms, byte and
   error counters, the flight recorder, the slow-query log and the
   Prometheus exposition — everything the daemon must keep across pipeline
   runs ([Driver.run] resets the process-global metrics registry, so the
   serve metrics live in their own [Metrics.registry]).

   Threading: all recording happens on the protocol thread. The only
   cross-domain reader is the [--stats-socket] scraper domain, which
   renders the registry under [mu]; recording therefore takes [mu] too.
   The flight ring is single-writer and only read on the protocol thread
   (dump op, crash flush, SIGUSR1), so it needs no lock. *)

module J = Fsam_obs.Json
module Metrics = Fsam_obs.Metrics
module Flight = Fsam_obs.Flight
module Mono = Fsam_obs.Monotonic

type t = {
  reg : Metrics.registry;
  mu : Mutex.t;
  flight : Flight.t option;
  slow_us : int;  (* negative: slow-query log disabled *)
  slow_oc : out_channel Lazy.t;  (* forced on first slow query only *)
  slow_owned : bool;  (* close on [close] iff we opened a file *)
  started_us : int;
  started_wall : float;
  mutable slow_logged : int;
}

let create ?(flight_cap = 256) ?(slow_ms = 100.0) ?slow_log () =
  let flight = if flight_cap > 0 then Some (Flight.create ~cap:flight_cap ()) else None in
  Flight.set_current flight;
  let slow_oc, slow_owned =
    match slow_log with
    | None -> (lazy stderr, false)
    | Some path ->
      (lazy (open_out_gen [ Open_append; Open_creat ] 0o644 path), true)
  in
  {
    reg = Metrics.create_registry ();
    mu = Mutex.create ();
    flight;
    slow_us = (if slow_ms < 0.0 then -1 else int_of_float (slow_ms *. 1000.0));
    slow_oc;
    slow_owned;
    started_us = Mono.now_us ();
    started_wall = Unix.gettimeofday ();
    slow_logged = 0;
  }

let close t =
  if t.slow_owned && Lazy.is_val t.slow_oc then close_out_noerr (Lazy.force t.slow_oc);
  if t.flight <> None then Flight.set_current None

let registry t = t.reg
let flight t = t.flight
let uptime_s t = float_of_int (Mono.elapsed_us ~since_us:t.started_us) /. 1e6
let slow_logged t = t.slow_logged

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* -- slow-query log -------------------------------------------------------- *)

(* Request parameters verbatim, except program-sized payloads ("source",
   "code"): those are elided to their byte length so a slow load does not
   journal a whole program per line. *)
let redact_params req =
  match req with
  | J.Obj fields ->
    J.Obj
      (List.filter_map
         (fun (k, v) ->
           match (k, v) with
           | ("op", _) | ("id", _) -> None
           | (("source" | "code"), J.String s) ->
             Some (k, J.Obj [ ("elided_bytes", J.Int (String.length s)) ])
           | kv -> Some kv)
         fields)
  | _ -> J.Obj []

let slow_line t ~seq ~op ~us ~cpu_us ~ok ~err ~gen ~req ~phases =
  J.Obj
    ([
       ("schema", J.String "fsam.slow/1");
       ("ts", J.Float (Unix.gettimeofday ()));
       ("seq", J.Int seq);
       ("op", J.String op);
       ("us", J.Int us);
       ("cpu_us", J.Int cpu_us);
       ("slow_ms_threshold", J.Float (float_of_int t.slow_us /. 1000.0));
       ("ok", J.Bool ok);
     ]
    @ (match err with Some c -> [ ("error", J.String c) ] | None -> [])
    @ [ ("gen", J.Int gen); ("params", redact_params req) ]
    @ match phases with Some p -> [ ("phases", p) ] | None -> [])

(* -- recording ------------------------------------------------------------- *)

(* One completed request. [phases] is the edit reply's phase breakdown when
   present (slow-log context); [dirty] is the edit's changed-function count
   (-1 when not an edit). *)
let note t ~seq ~op ~us ~cpu_us ~ok ~err ~gen ~dirty ~bytes_in ~bytes_out ~req ~phases =
  locked t (fun () ->
      let reg = t.reg in
      Metrics.observe (Metrics.histogram ~reg (Printf.sprintf "serve.req.%s.latency_us" op)) us;
      Metrics.incr (Metrics.counter ~reg "serve.requests_total");
      Metrics.add (Metrics.counter ~reg "serve.bytes_in_total") bytes_in;
      Metrics.add (Metrics.counter ~reg "serve.bytes_out_total") bytes_out;
      match err with
      | Some code ->
        Metrics.incr (Metrics.counter ~reg "serve.errors_total");
        Metrics.incr (Metrics.counter ~reg (Printf.sprintf "serve.errors.%s" code))
      | None -> ());
  (match t.flight with
  | Some f ->
    Flight.note f ~seq ~op ~us ~cpu_us ~ok ?err ~gen ~dirty ~bytes_in ~bytes_out ()
  | None -> ());
  if t.slow_us >= 0 && us > t.slow_us then begin
    t.slow_logged <- t.slow_logged + 1;
    let oc = Lazy.force t.slow_oc in
    output_string oc
      (J.to_string ~minify:true (slow_line t ~seq ~op ~us ~cpu_us ~ok ~err ~gen ~req ~phases));
    output_char oc '\n';
    flush oc
  end

(* Per-op request count and summed latency, read off the
   [serve.req.<op>.latency_us] histograms [note] fills. *)
let op_totals t =
  let prefix = "serve.req." and suffix = ".latency_us" in
  let np = String.length prefix and ns = String.length suffix in
  locked t (fun () ->
      List.filter_map
        (fun (name, h) ->
          let n = String.length name in
          if n >= np + ns && String.starts_with ~prefix name && String.ends_with ~suffix name
          then
            let op = String.sub name np (n - np - ns) in
            Some (op, Metrics.histogram_count h, Metrics.histogram_sum h)
          else None)
        (Metrics.histograms ~reg:t.reg ()))
  |> List.sort compare

(* -- process gauges -------------------------------------------------------- *)

let page_kb =
  (* OCaml's Unix doesn't expose sysconf(_SC_PAGESIZE); 4 KiB covers every
     platform this daemon targets, and the gauge is informational *)
  4

let rss_kb () =
  try
    let ic = open_in "/proc/self/statm" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match String.split_on_char ' ' (input_line ic) with
        | _ :: resident :: _ -> int_of_string resident * page_kb
        | _ -> 0)
  with Sys_error _ | End_of_file | Failure _ -> 0

(* Domain-safe subset: callable from the scraper domain too. *)
let refresh_process_gauges t =
  locked t (fun () ->
      let reg = t.reg in
      Metrics.set (Metrics.gauge ~reg "serve.uptime_s")
        (Mono.elapsed_us ~since_us:t.started_us / 1_000_000);
      Metrics.set (Metrics.gauge ~reg "serve.pid") (Unix.getpid ());
      Metrics.set (Metrics.gauge ~reg "serve.rss_kb") (rss_kb ());
      let gc = Gc.quick_stat () in
      Metrics.set (Metrics.gauge ~reg "serve.gc.heap_words") gc.Gc.heap_words;
      Metrics.set (Metrics.gauge ~reg "serve.gc.major_words") (int_of_float gc.Gc.major_words);
      Metrics.set (Metrics.gauge ~reg "serve.gc.major_collections") gc.Gc.major_collections)

(* Engine-derived subset: reads resident-generation structures, so only the
   protocol thread may call it; the scraper serves the last refresh. *)
let refresh_engine_gauges t ~generation ~gen_age_us ~busy ~iset_live =
  locked t (fun () ->
      let reg = t.reg in
      Metrics.set (Metrics.gauge ~reg "serve.generation") generation;
      Metrics.set (Metrics.gauge ~reg "serve.generation_age_s") (gen_age_us / 1_000_000);
      Metrics.set (Metrics.gauge ~reg "serve.edits_in_flight") (if busy then 1 else 0);
      Metrics.set (Metrics.gauge ~reg "serve.iset.live_nodes") iset_live)

(* -- exposition ------------------------------------------------------------ *)

let to_json t = locked t (fun () -> Metrics.to_json ~reg:t.reg ())

(* [extra_regs] lets the protocol thread append the pipeline's global
   registry when no edit owns it; the scraper domain must pass none. *)
let to_prometheus ?(extra_regs = []) t =
  refresh_process_gauges t;
  locked t (fun () -> Metrics.to_prometheus ~regs:(t.reg :: extra_regs) ())
