(* The per-layer metrics of a traced run, read off the span trees of its
   ops (see spans.ml). A timed layer is a span name and its metric is the
   name with "_s": the mean duration of one invocation, children included,
   or 0 where the workload never crosses the layer. The library names most
   layers (Driver's phases, Sparse's steps); the bench adds the frontend
   and the three clients of a cold op, and "edit.prepare", the part of a
   daemon edit before the Driver's first span. *)

module D = Fsam_core.Driver
module Span = Fsam_obs.Span

let timed_layers =
  [
    "frontend.lower";
    "edit.prepare";
    "phase.pre";
    "phase.threads";
    "phase.mhp";
    "phase.locks";
    "pcg.compute";
    "phase.svfg";
    "phase.solve";
    "singletons.compute";
    "sparse.index";
    "sparse.condense";
    "sparse.drain";
    "races.detect";
    "leaks.detect";
    "deadlocks.detect";
  ]

let count_names =
  [ "andersen.iterations"; "mta.thread_insts"; "svfg.edges"; "svfg.thread_edges"; "sparse.propagations" ]

(* Work counters of one generation, from public accessors, in the order of
   [count_names]. *)
let counts (d : D.t) =
  List.combine count_names
    (List.map float_of_int
       [
         Fsam_andersen.Solver.n_solver_iterations d.D.ast;
         Fsam_mta.Threads.n_insts d.D.tm;
         Fsam_memssa.Svfg.n_edges d.D.svfg;
         Fsam_memssa.Svfg.n_thread_aware_edges d.D.svfg;
         Fsam_core.Sparse.n_iterations d.D.sparse;
       ])

let edit_names = [ "edit.dirty_frac"; "edit.reuse_frac"; "edit.fallbacks" ]

(* Mean of each named value over a list of rows; 0 for an empty list. *)
let mean_rows names rows =
  List.map
    (fun name -> (name, if rows = [] then 0. else Stat.mean (List.map (List.assoc name) rows)))
    names

(* Layer time of an op: its wall minus what no span under it covers. *)
let attributed op = op.Span.dur_s -. Spans.self_s op

type traced = {
  ops : Span.t list;  (** the traced ops *)
  others : Span.t list;  (** layer spans outside any op: async edits, a closing race report *)
  counts : (string * float) list list;  (** [counts] of every generation measured *)
  races : float;  (** races.count: mean races per report *)
  edit : (string * float) list list;  (** [edit_names] per edit; empty without edits *)
  gc_major_per_op : float;
  top_heap_words : int;
  closure_pct : float;  (** layer time per op vs the untraced op wall, in percent *)
  overhead_pct : float;  (** traced op wall vs untraced op wall, in percent *)
}

let per_layer_metrics t =
  let ledger = Spans.ledger t.ops in
  let durations = Spans.by_name (fun s -> s.Span.dur_s) (t.ops @ t.others) in
  let mean_dur name =
    match List.find_opt (fun (n, _, _) -> n = name) durations with
    | Some (_, x, k) -> x /. float_of_int k
    | None -> 0.
  in
  List.map (fun name -> (name ^ "_s", mean_dur name, "s")) timed_layers
  @ [
      ("ledger.op_s", ledger.Spans.op_s, "s");
      ("ledger.unattributed_s", ledger.Spans.unattributed_s, "s");
      ("ledger.closure_gap_pct", Float.abs t.closure_pct, "%");
      ("ledger.tracing_overhead_pct", t.overhead_pct, "%");
    ]
  @ List.map (fun (name, x) -> (name, x, "count")) (mean_rows count_names t.counts)
  @ [ ("races.count", t.races, "count") ]
  @ List.map
      (fun (name, x) -> (name, x, if name = "edit.fallbacks" then "count" else "ratio"))
      (mean_rows edit_names t.edit)
  @ [
      ("gc.major_collections", t.gc_major_per_op, "count");
      ("gc.top_heap_mb", float_of_int (t.top_heap_words * (Sys.word_size / 8)) /. 1048576., "MB");
    ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* End of a traced run: print the ledger, write it and the Chrome trace
   under [dir], and return the per-layer metrics. *)
let report ~dir ~workload t =
  let ledger = Spans.ledger t.ops in
  let pr oc =
    Spans.pp_ledger oc ledger;
    Printf.fprintf oc "  closure %+.2f%% of the untraced op wall, tracing overhead %+.2f%%\n"
      t.closure_pct t.overhead_pct
  in
  pr stdout;
  mkdir_p dir;
  let path ext = Filename.concat dir (workload ^ ext) in
  Fsam_obs.Trace.write (path ".trace.json") (t.ops @ t.others);
  let oc = open_out (path ".ledger.txt") in
  pr oc;
  List.iter
    (fun (name, self, n) ->
      Printf.fprintf oc "  self %-32s %14.6f s x %d\n" name (self /. float_of_int n) n)
    (Spans.by_name Spans.self_s (t.ops @ t.others));
  close_out oc;
  per_layer_metrics t
