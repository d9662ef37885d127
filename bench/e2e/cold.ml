(* cold-mid and cold-suite: cold analyses, each in a forked child that times
   itself. The op is what `fsam races` does on a fresh process: frontend,
   the full pipeline, then the race, leak and deadlock clients. *)

module D = Fsam_core.Driver
module Span = Fsam_obs.Span

type sample = {
  wall : float;
  op : Span.t option;  (** traced samples only *)
  counts : (string * float) list;
  rss_kb : int;
  races : int;
  checked : int;  (** oracle facts checked *)
  missing : int;  (** oracle facts absent from the result *)
  gc_major : int;
  top_heap_words : int;
}

(* Traced, the op runs in an "op" span, with the bench's spans around the
   frontend and the clients; [Driver.run]'s own spans land under it. *)
let analyze ~traced lower =
  let span name f = if traced then Span.with_ ~name f else f () in
  let go () =
    let d = D.run (span "frontend.lower" lower) in
    let races = span "races.detect" (fun () -> Fsam_core.Races.detect d) in
    ignore (span "leaks.detect" (fun () -> Fsam_core.Leaks.detect d));
    ignore (span "deadlocks.detect" (fun () -> Fsam_core.Deadlocks.detect d));
    (d, races)
  in
  if traced then
    let r, op = Span.with_timed ~name:"op" go in
    (r, Some op)
  else (go (), None)

let sample ~traced lower () =
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = Spans.now () in
  let (d, races), op = analyze ~traced lower in
  let wall = Spans.now () -. t0 in
  let g = Gc.quick_stat () in
  let rss_kb = Proc.vm_hwm_kb () in
  let checked, missing = Check.oracle ~max_runs:20 d in
  let races = List.length races in
  {
    wall;
    op;
    counts = Layers.counts d;
    rss_kb;
    races;
    checked;
    missing;
    gc_major = g.Gc.major_collections - gc0;
    top_heap_words = g.Gc.top_heap_words;
  }

type input = { label : string; lower : unit -> Fsam_ir.Prog.t }

(* Median wall of [reps] runs of [f], each from a freshly collected heap
   (a set-up of a few milliseconds otherwise measures where the previous
   repetition left the major GC). *)
let median_time reps f =
  Stat.median
    (List.init reps (fun _ ->
         Gc.full_major ();
         let t0 = Spans.now () in
         ignore (Sys.opaque_identity (f ()));
         Spans.now () -. t0))

let inputs ~size ~seed = function
  | `Mid ->
    let gen () =
      List.init (Inputs.panel_size size) (fun k ->
          let p = Inputs.synth size ~seed:(Inputs.panel_seed ~seed k) in
          (p.Fsam_workloads.Minic_synth.seed, Fsam_workloads.Minic_synth.generate p))
    in
    let setup_s = median_time 15 gen in
    let srcs = gen () in
    ( setup_s,
      List.map
        (fun (s, src) ->
          {
            label = Printf.sprintf "synth_mid#%d" s;
            lower = (fun () -> Fsam_frontend.Lower.compile_string src);
          })
        srcs )
  | `Suite ->
    let specs = Inputs.suite ~seed in
    let build () =
      List.map (fun s -> s.Fsam_workloads.Suite.build (Inputs.suite_scale size s)) specs
    in
    let setup_s = median_time 15 build in
    ( setup_s,
      List.map
        (fun s ->
          {
            label = s.Fsam_workloads.Suite.name;
            lower = (fun () -> s.Fsam_workloads.Suite.build (Inputs.suite_scale size s));
          })
        specs )

(* Round-robin over the inputs until [seconds] have passed: every input is
   picked at least once; after that a pick starts only if the input's last
   pick fits in the time left. A traced run's pick is a traced and an
   untraced sample back to back, in alternating order, so the two sides of
   the closure and overhead see the same machine state. *)
let collect ~seconds ~traced inputs =
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  let got = Array.make n [] (* (traced?, sample), newest first *) in
  let tries = Array.make n 0 and last = Array.make n 0. in
  let errors = ref [] in
  let t_end = Spans.now () +. seconds in
  let next = ref 0 and picks = ref 0 in
  let pick () =
    let short k = tries.(k) = 0 in
    let remaining = t_end -. Spans.now () in
    let wanted =
      if List.exists short (List.init n Fun.id) then short else fun k -> last.(k) <= remaining
    in
    let rec go i =
      if i = n then None
      else
        let k = (!next + i) mod n in
        if wanted k then begin
          next := k + 1;
          Some k
        end
        else go (i + 1)
    in
    go 0
  in
  let rec loop () =
    match pick () with
    | None -> ()
    | Some k ->
      let kinds =
        if not traced then [ false ]
        else if !picks mod 2 = 0 then [ true; false ]
        else [ false; true ]
      in
      incr picks;
      tries.(k) <- tries.(k) + 1;
      last.(k) <- 0.;
      List.iter
        (fun traced_sample ->
          match Proc.in_child (sample ~traced:traced_sample inputs.(k).lower) with
          | Ok s ->
            last.(k) <- last.(k) +. s.wall;
            got.(k) <- (traced_sample, s) :: got.(k)
          | Error e -> errors := (inputs.(k).label, e) :: !errors)
        kinds;
      loop ()
  in
  loop ();
  (Array.to_list (Array.mapi (fun k l -> (inputs.(k), List.rev l)) got), List.rev !errors)

let ms s = s.wall *. 1000.

let run ~size ~seed ~seconds ~traced ~trace_dir kind =
  let workload = match kind with `Mid -> "cold-mid" | `Suite -> "cold-suite" in
  let setup_s, inputs = inputs ~size ~seed kind in
  Gc.compact ();
  let per_input, errors = collect ~seconds ~traced inputs in
  let samples = List.concat_map snd per_input in
  let bad = List.filter (fun (_, s) -> s.missing > 0) samples in
  List.iter (fun (label, e) -> Printf.printf "%s: %s: sample failed: %s\n" workload label e) errors;
  List.iter
    (fun (inp, l) ->
      List.iter
        (fun (tr, s) ->
          Printf.printf "%s %-14s %s %9.3f ms  races %5d  oracle %d/%d missing  rss %d MB\n"
            workload inp.label
            (if tr then "traced  " else "untraced")
            (ms s) s.races s.missing s.checked (s.rss_kb / 1024))
        l)
    per_input;
  let attempted = List.length samples + List.length errors in
  let failed = List.length errors + List.length bad in
  (* the traced or the untraced samples of one input *)
  let side traced l = List.filter_map (fun (tr, s) -> if tr = traced then Some s else None) l in
  let metrics =
    if not traced then begin
      (* one row per program, combined by geometric mean: each program
         weighs the same however long it runs *)
      let lat f =
        Stat.geomean
          (List.filter_map
             (fun (_, l) -> match side false l with [] -> None | u -> Some (f (List.map ms u)))
             per_input)
      in
      let rss = List.fold_left (fun m (_, s) -> max m s.rss_kb) 0 samples in
      [
        ("setup_s", setup_s, "s");
        ("op_p50_ms", lat Stat.median, "ms");
        ("op_p90_ms", lat (fun l -> Stat.percentile l 90.), "ms");
        ("ops_per_s", 1000. /. lat Stat.mean, "1/s");
        ("peak_rss_mb", float_of_int rss /. 1024., "MB");
      ]
    end
    else begin
      (* closure and overhead per input, then the geometric mean *)
      let ratios f =
        List.filter_map
          (fun (_, l) ->
            match (side true l, side false l) with
            | [], _ | _, [] -> None
            | t, u ->
              let base = Stat.mean (List.map (fun s -> s.wall) u) in
              Some (Stat.mean (List.map f t) /. base))
          per_input
      in
      let pct r = 100. *. (Stat.geomean r -. 1.) in
      let attributed s = Layers.attributed (Option.get s.op) in
      let t =
        {
          Layers.ops = List.filter_map (fun (_, s) -> s.op) samples;
          others = [];
          counts = List.map (fun (_, s) -> s.counts) samples;
          races = Stat.mean (List.map (fun (_, s) -> float_of_int s.races) samples);
          edit = [];
          gc_major_per_op =
            Stat.mean (List.map (fun (_, s) -> float_of_int s.gc_major) samples);
          top_heap_words = List.fold_left (fun m (_, s) -> max m s.top_heap_words) 0 samples;
          closure_pct = pct (ratios attributed);
          overhead_pct = pct (ratios (fun s -> s.wall));
        }
      in
      Layers.report ~dir:trace_dir ~workload t
    end
  in
  (attempted, failed, metrics)
