(* Benchmark harness regenerating the paper's evaluation artifacts:

     dune exec bench/main.exe                      # everything
     dune exec bench/main.exe -- table1            # Table 1: program statistics
     dune exec bench/main.exe -- table2            # Table 2: FSAM vs NonSparse
     dune exec bench/main.exe -- figure12          # Figure 12: phase ablations
     dune exec bench/main.exe -- large             # one paper-scale pipeline run
     dune exec bench/main.exe -- vf                # indexed MHP/lock query layer
     dune exec bench/main.exe -- prov              # provenance off/on guard
     dune exec bench/main.exe -- micro             # bechamel micro-benchmarks
     dune exec bench/main.exe -- table2 --budget 60 --quick
     dune exec bench/main.exe -- table2 --only word_count,kmeans

   Absolute numbers differ from the paper's (their substrate was LLVM on
   real Parsec binaries; ours is the MiniC IR on synthetic mirrors — see
   DESIGN.md), but the comparisons the paper draws are reproduced: FSAM is
   an order of magnitude faster and smaller than NonSparse, NonSparse times
   out on the two largest programs, and each interference phase matters most
   for the benchmark family the paper attributes it to. *)

module D = Fsam_core.Driver
module W = Fsam_workloads.Suite
module Measure' = Fsam_core.Measure
module J = Fsam_obs.Json
module Prog = Fsam_ir.Prog

let budget = ref 120.
let quick = ref false
let only : string list option ref = ref None

(* --size small|large: [small] is the historical tier (thread-scaled vf
   programs, the quick synth serve program); [large] switches vf/serve to
   their paper-scale programs with a single measurement, writing
   BENCH_<cmd>_large.json so the two tiers keep independent committed
   baselines. *)
let size = ref "small"

let workloads () =
  match !only with
  | None -> W.all
  | Some names ->
    List.filter (fun (s : W.spec) -> List.mem s.name names) W.all

let git_commit =
  lazy
    (try
       let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
       let line = try String.trim (input_line ic) with End_of_file -> "" in
       ignore (Unix.close_process_in ic);
       if line = "" then "unknown" else line
     with Unix.Unix_error _ | Sys_error _ -> "unknown")

(* Persist a table as JSON next to the scrollback output so the perf
   trajectory across PRs stays diffable (BENCH_table2.json etc.). Every
   document carries the commit it was measured at and a snapshot of the
   metrics registry left by the last pipeline run, so a table row can be
   traced back to the exact internal counters behind it. *)
let write_bench path doc =
  let doc =
    match doc with
    | J.Obj fields ->
      J.Obj
        (fields
        @ [
            ("git_commit", J.String (Lazy.force git_commit));
            ("metrics", Fsam_obs.Metrics.to_json ());
          ])
    | d -> d
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> J.to_channel oc doc);
  Printf.printf "(wrote %s)\n\n" path

(* programs analyzable by NonSparse within the budget get a scale that
   terminates; the two largest are sized to exceed it (like raytrace / x264
   in the paper) *)
let scale_of (s : W.spec) = if !quick then max 10 (s.scale / 4) else s.scale

(* ------------------------------------------------------------------------- *)
(* Table 1 — program statistics.                                              *)
(* ------------------------------------------------------------------------- *)

let table1 () =
  Printf.printf "Table 1: Program statistics.\n";
  Printf.printf "%-14s %-45s %9s | %8s %6s %6s %6s %6s\n" "Benchmark" "Description"
    "paper LOC" "IR stmts" "funcs" "forks" "joins" "locks";
  Printf.printf "%s\n" (String.make 118 '-');
  List.iter
    (fun (s : W.spec) ->
      let prog = s.build (scale_of s) in
      let stmts, funcs, forks, joins, locks = W.program_stats prog in
      Printf.printf "%-14s %-45s %9d | %8d %6d %6d %6d %6d\n" s.name s.description
        s.paper_loc stmts funcs forks joins locks)
    (workloads ());
  Printf.printf "\n"

(* ------------------------------------------------------------------------- *)
(* Table 2 — analysis time and memory, FSAM vs NonSparse.                     *)
(* ------------------------------------------------------------------------- *)

let geomean = function
  | [] -> nan
  | l -> exp (List.fold_left (fun acc x -> acc +. log x) 0. l /. float_of_int (List.length l))

let table2 () =
  Printf.printf "Table 2: Analysis time and memory usage (budget %.0fs).\n" !budget;
  Printf.printf "%-14s | %10s %12s | %12s %12s | %8s %8s\n" "Program" "FSAM (s)"
    "FSAM facts" "NonSp (s)" "NonSp facts" "speedup" "mem rat";
  Printf.printf "%s\n" (String.make 90 '-');
  let speedups = ref [] and mem_ratios = ref [] in
  let rows = ref [] in
  List.iter
    (fun (s : W.spec) ->
      let prog = s.build (scale_of s) in
      let mf = Measure'.run (fun () -> D.run prog) in
      let f_time = mf.Measure'.wall_seconds in
      let f_facts = Fsam_core.Sparse.pts_entries mf.Measure'.value.D.sparse in
      let cfg = { D.default_config with nonsparse_budget = !budget } in
      let prog2 = s.build (scale_of s) in
      let mn = Measure'.run (fun () -> D.run_nonsparse ~config:cfg prog2) in
      let fsam_json =
        [
          ("fsam_wall_s", J.Float f_time);
          ("fsam_cpu_s", J.Float mf.Measure'.cpu_seconds);
          ("fsam_live_mb", J.Float mf.Measure'.live_mb);
          ("fsam_facts", J.Int f_facts);
        ]
      in
      (match fst mn.Measure'.value with
      | Fsam_core.Nonsparse.Done ns ->
        let n_time = mn.Measure'.wall_seconds in
        let n_facts = Fsam_core.Nonsparse.pts_entries ns in
        let sp = n_time /. max 1e-6 f_time in
        let mr = float_of_int n_facts /. float_of_int (max 1 f_facts) in
        speedups := sp :: !speedups;
        mem_ratios := mr :: !mem_ratios;
        rows :=
          J.Obj
            (("program", J.String s.name)
             :: fsam_json
            @ [
                ("nonsparse_status", J.String "done");
                ("nonsparse_wall_s", J.Float n_time);
                ("nonsparse_cpu_s", J.Float mn.Measure'.cpu_seconds);
                ("nonsparse_live_mb", J.Float mn.Measure'.live_mb);
                ("nonsparse_facts", J.Int n_facts);
                ("speedup", J.Float sp);
                ("mem_ratio", J.Float mr);
              ])
          :: !rows;
        Printf.printf "%-14s | %10.2f %12d | %12.2f %12d | %7.1fx %7.1fx\n" s.name f_time
          f_facts n_time n_facts sp mr
      | Fsam_core.Nonsparse.Timeout b ->
        rows :=
          J.Obj
            (("program", J.String s.name)
             :: fsam_json
            @ [ ("nonsparse_status", J.String "oot"); ("nonsparse_budget_s", J.Float b) ])
          :: !rows;
        Printf.printf "%-14s | %10.2f %12d | %12s %12s | %8s %8s\n" s.name f_time f_facts
          "OOT" "-" "-" "-");
      flush stdout)
    (workloads ());
  Printf.printf "%s\n" (String.make 90 '-');
  Printf.printf
    "Geometric mean over mutually-analyzable programs: %.1fx faster, %.1fx fewer \
     points-to facts\n"
    (geomean !speedups) (geomean !mem_ratios);
  Printf.printf "(paper: 12x faster, 28x less memory; OOT expected on raytrace and x264)\n\n";
  write_bench "BENCH_table2.json"
    (J.Obj
       [
         ("schema", J.String "fsam.bench.table2/1");
         ("budget_s", J.Float !budget);
         ("quick", J.Bool !quick);
         ("geomean_speedup", J.Float (geomean !speedups));
         ("geomean_mem_ratio", J.Float (geomean !mem_ratios));
         ("rows", J.List (List.rev !rows));
       ])

(* ------------------------------------------------------------------------- *)
(* Figure 12 — impact of the three thread-interference phases.                *)
(* ------------------------------------------------------------------------- *)

let figure12 () =
  Printf.printf
    "Figure 12: impact of disabling each interference phase. Each cell shows\n\
     the slowdown (wall-clock) and, in brackets, the growth of retained\n\
     points-to facts — the deterministic measure of the spurious def-use\n\
     edges the phase removes.\n";
  Printf.printf "%-14s | %9s | %-18s %-18s %-18s\n" "Program" "FSAM (s)" "No-Interleaving"
    "No-Value-Flow" "No-Lock";
  Printf.printf "%s\n" (String.make 86 '-');
  let rows = ref [] in
  List.iter
    (fun (s : W.spec) ->
      let run config =
        let prog = s.build (scale_of s) in
        let m = Measure'.run (fun () -> D.run ~config prog) in
        (m.Measure'.wall_seconds, m.Measure'.value)
      in
      let base_t, base_d = run D.default_config in
      let base_f = Fsam_core.Sparse.pts_entries base_d.D.sparse in
      let cells = ref [] in
      (* the exact counters gate each ablation's SVFG and solve; the
         slowdown is printed only, since a wall ratio cannot be gated
         exactly *)
      let cell name config =
        let t, d = run config in
        let f = Fsam_core.Sparse.pts_entries d.D.sparse in
        let slowdown = t /. max 1e-6 base_t in
        let growth = float_of_int f /. float_of_int (max 1 base_f) in
        cells :=
          ( name,
            J.Obj
              [
                ("wall_s", J.Float t);
                ("facts", J.Int f);
                ("fact_growth", J.Float growth);
                ("svfg_edges", J.Int (Fsam_memssa.Svfg.n_edges d.D.svfg));
                ("svfg_thread_edges", J.Int (Fsam_memssa.Svfg.n_thread_aware_edges d.D.svfg));
              ] )
          :: !cells;
        Printf.sprintf "%5.2fx [%5.2fx]" slowdown growth
      in
      let printed =
        Printf.sprintf "%-14s | %9.2f | %-18s %-18s %-18s" s.name base_t
          (cell "no_interleaving" D.no_interleaving)
          (cell "no_value_flow" D.no_value_flow)
          (cell "no_lock" D.no_lock)
      in
      Printf.printf "%s\n" printed;
      rows :=
        J.Obj
          [
            ("program", J.String s.name);
            ("base_wall_s", J.Float base_t);
            ("base_facts", J.Int base_f);
            ("ablations", J.Obj (List.rev !cells));
          ]
        :: !rows;
      flush stdout)
    (workloads ());
  Printf.printf
    "(paper: value-flow matters most on average; interleaving dominates on \
     master-slave programs — kmeans, httpd_server, mt_daapd; locks on automount and \
     radiosity)\n\n";
  write_bench "BENCH_figure12.json"
    (J.Obj
       [
         ("schema", J.String "fsam.bench.figure12/1");
         ("quick", J.Bool !quick);
         ("rows", J.List (List.rev !rows));
       ])

(* ------------------------------------------------------------------------- *)
(* large — one paper-scale pipeline run.                                      *)
(* ------------------------------------------------------------------------- *)

(* One synthesized 100+ KLOC MiniC program through the whole pipeline and
   the race client, once. The deterministic sizes, counts and digests are the gate;
   the wall time is informational (one run, no noise estimate). *)
let large () =
  let p = Fsam_workloads.Minic_synth.large in
  let src = Fsam_workloads.Minic_synth.generate p in
  let lines = Fsam_workloads.Minic_synth.line_count src in
  Printf.printf "Paper-scale pipeline: synthesized MiniC, %d lines.\n" lines;
  let prog = Fsam_frontend.Lower.compile_string src in
  Printf.printf "  IR statements: %d\n%!" (Prog.n_stmts prog);
  let m = Measure'.run (fun () -> D.run prog) in
  let d = m.Measure'.value in
  Printf.printf "  pipeline: %.1fs\n%!" m.Measure'.wall_seconds;
  let races = Fsam_core.Races.detect d in
  Printf.printf "  races: %d; svfg edges %d (%d [THREAD-VF])\n\n%!" (List.length races)
    (Fsam_memssa.Svfg.n_edges d.D.svfg)
    (Fsam_memssa.Svfg.n_thread_aware_edges d.D.svfg);
  (* every variable's top-level points-to set, in var order: with the SVFG
     digest, an exact identity check of the run's results *)
  let pt_digest =
    let buf = Buffer.create 4096 in
    for v = 0 to Prog.n_vars prog - 1 do
      Fsam_dsa.Iset.iter
        (fun o -> Buffer.add_string buf (string_of_int o ^ ","))
        (Fsam_core.Sparse.pt_top d.D.sparse v);
      Buffer.add_char buf '\n'
    done;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  write_bench "BENCH_large.json"
    (J.Obj
       [
         ("schema", J.String "fsam.bench.large/1");
         ( "rows",
           J.List
             [
               J.Obj
                 [
                   ("program", J.String "synth_large");
                   ("source_lines", J.Int lines);
                   ("ir_stmts", J.Int (Prog.n_stmts prog));
                   ("pipeline_wall_s", J.Float m.Measure'.wall_seconds);
                   ("n_races", J.Int (List.length races));
                   ("svfg_edges", J.Int (Fsam_memssa.Svfg.n_edges d.D.svfg));
                   ("svfg_thread_edges", J.Int (Fsam_memssa.Svfg.n_thread_aware_edges d.D.svfg));
                   ("svfg_digest", J.String (Fsam_memssa.Svfg.digest d.D.svfg));
                   ("pt_digest", J.String pt_digest);
                 ];
             ] );
       ])

(* ------------------------------------------------------------------------- *)
(* vf — indexed MHP/lock query layer on thread-scaled workloads.              *)
(* ------------------------------------------------------------------------- *)

module Vf = Fsam_workloads.Vf_scale
module Mta = Fsam_mta
module A = Fsam_andersen.Solver

(* Replay the [THREAD-VF] query stream — every (object, store, access) pair
   with a common points-to target, statement-level MHP memoised on the
   canonical key exactly as the builder memoises it — against the indexed
   query layer and the naive scans of [Oracle.Naive], counting the
   primitive probes each performs.
   The replay covers the full pair space (no escape filter), so it is a
   superset of what the filtered build issues; both sides see the identical
   stream. *)
let query_replay (d : D.t) =
  let prog = d.D.prog and ast = d.D.ast in
  let mhp = d.D.mhp and lk = d.D.locks in
  let stores_of = Hashtbl.create 64 and accesses_of = Hashtbl.create 64 in
  let tbl_add tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  Prog.iter_stmts prog (fun gid _ s ->
      match s with
      | Fsam_ir.Stmt.Load { src; _ } ->
        Fsam_dsa.Iset.iter (fun o -> tbl_add accesses_of o gid) (A.pt_var ast src)
      | Fsam_ir.Stmt.Store { dst; _ } ->
        Fsam_dsa.Iset.iter
          (fun o ->
            tbl_add accesses_of o gid;
            tbl_add stores_of o gid)
          (A.pt_var ast dst)
      | _ -> ());
  let objs = List.sort compare (Hashtbl.fold (fun o _ acc -> o :: acc) stores_of []) in
  let run_side indexed =
    let stats = Mta.Mhp.fresh_stats () in
    let cache = Mta.Locks.make_cache () in
    let probes = ref 0 in
    let memo = Hashtbl.create 1024 in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun o ->
        List.iter
          (fun s ->
            List.iter
              (fun s' ->
                let key = if s <= s' then (s, s') else (s', s) in
                let hit =
                  match Hashtbl.find_opt memo key with
                  | Some b -> b
                  | None ->
                    let b =
                      if indexed then Mta.Mhp.mhp_stmt ~stats mhp s s'
                      else Oracle.Naive.mhp_stmt ~probes mhp s s'
                    in
                    Hashtbl.replace memo key b;
                    b
                in
                if hit then
                  let pairs =
                    if indexed then Mta.Mhp.mhp_pairs_inst ~stats mhp s s'
                    else Oracle.Naive.mhp_pairs_inst ~probes mhp s s'
                  in
                  List.iter
                    (fun (i, j) ->
                      ignore
                        (if indexed then Mta.Locks.common_lock ~cache lk i j
                         else Oracle.Naive.common_lock ~probes lk i j))
                    pairs)
              (Option.value ~default:[] (Hashtbl.find_opt accesses_of o)))
          (Option.value ~default:[] (Hashtbl.find_opt stores_of o)))
      objs;
    let wall = Unix.gettimeofday () -. t0 in
    let checks =
      if indexed then
        stats.Mta.Mhp.thread_checks + stats.Mta.Mhp.inst_checks
        + Mta.Locks.cache_span_checks cache + Mta.Locks.cache_queries cache
      else !probes
    in
    (checks, wall)
  in
  (* naive first so the indexed side cannot benefit from warmed caches *)
  let naive = run_side false in
  let indexed = run_side true in
  (indexed, naive)

let vf () =
  let large = !size = "large" in
  (* the large tier is one paper-scale thread-scaled program: more workers
     and a bigger sweep than vf_t32 *)
  let scale = if large then 100 else if !quick then 20 else 60 in
  let specs =
    if large then [ ("vf_t48", 48) ]
    else
      match !only with
      | None -> Vf.specs
      | Some names -> List.filter (fun (name, _) -> List.mem name names) Vf.specs
  in
  Printf.printf
    "Thread-scaled [THREAD-VF] workloads: indexed vs naive MHP/lock query work.\n";
  Printf.printf "%-8s %7s %7s | %9s %9s %7s | %10s\n" "Program" "threads" "insts" "idx work"
    "nv work" "ratio" "svfg (s)";
  Printf.printf "%s\n" (String.make 78 '-');
  let rows = ref [] in
  (* the acceptance bar is the largest thread-scaled workload: small ones
     have too few cross-round products for the index to amortise *)
  let last_ratio = ref infinity in
  List.iter
    (fun (name, threads) ->
      let prog = Vf.build ~threads scale in
      let counter_names =
        [
          "svfg.thread_pairs_considered";
          "svfg.pairs_skipped_stmt";
          "svfg.lock_filtered_edges";
          "mhp.summary_stmt_queries";
          "mhp.summary_pair_queries";
          "mhp.summary_thread_checks";
          "mhp.summary_inst_checks";
          "locks.queries";
          "locks.bitset_hits";
          "locks.pair_memo_hits";
          "locks.span_pair_checks";
        ]
      in
      let d1 = D.run prog in
      let counters1 =
        List.map
          (fun n -> (n, Option.value ~default:0 (Fsam_obs.Metrics.find_counter n)))
          counter_names
      in
      let (idx_checks, idx_wall), (nv_checks, nv_wall) = query_replay d1 in
      let ratio = float_of_int nv_checks /. float_of_int (max 1 idx_checks) in
      last_ratio := ratio;
      Printf.printf "%-8s %7d %7d | %9d %9d | %5.1fx | %10.3f\n" name threads
        (Mta.Threads.n_insts d1.D.tm) idx_checks nv_checks ratio (D.phase_s d1 "phase.svfg");
      flush stdout;
      rows :=
        J.Obj
          [
            ("program", J.String name);
            ("threads", J.Int threads);
            ("insts", J.Int (Mta.Threads.n_insts d1.D.tm));
            ("phases_s", Fsam_core.Report.phase_seconds d1.D.root);
            ("counters", J.Obj (List.map (fun (n, v) -> (n, J.Int v)) counters1));
            ( "query_replay",
              J.Obj
                [
                  ("indexed_checks", J.Int idx_checks);
                  ("naive_checks", J.Int nv_checks);
                  ("work_ratio", J.Float ratio);
                  ("indexed_wall_s", J.Float idx_wall);
                  ("naive_wall_s", J.Float nv_wall);
                ] );
          ]
        :: !rows)
    specs;
  Printf.printf "%s\n" (String.make 78 '-');
  if specs <> [] && !last_ratio < 2.0 then
    Printf.printf
      "WARNING: work reduction on the largest workload is %.2fx, below the 2x target\n"
      !last_ratio;
  Printf.printf "\n";
  write_bench
    (if large then "BENCH_vf_large.json" else "BENCH_vf.json")
    (J.Obj
       [
         ( "schema",
           J.String (if large then "fsam.bench.vf_large/1" else "fsam.bench.vf/1") );
         ("quick", J.Bool !quick);
         ("scale", J.Int scale);
         ("rows", J.List (List.rev !rows));
       ])

(* ------------------------------------------------------------------------- *)
(* prov — provenance recording guard: off/on identity + overhead.             *)
(* ------------------------------------------------------------------------- *)

(* CI guard for the derivation recorder. Hard (deterministic, exit 1):
   provenance on must leave every points-to result byte-identical and must
   not change the solver's propagation count — recording may observe the
   fixpoint computation, never steer it. Wall-clock overhead of recording is
   reported (and persisted) but not gated: it is machine-dependent, and the
   off path's own cost against the pre-recorder baseline is tracked in
   EXPERIMENTS.md. *)
let prov_bench () =
  (* default: the smallest suite workload; --only can select any suite
     workload or a thread-scaled vf_N workload *)
  let name, build, scale =
    match !only with
    | Some [ n ] when List.mem_assoc n Vf.specs ->
      let threads = List.assoc n Vf.specs in
      (n, (fun scale -> Vf.build ~threads scale), if !quick then 20 else 60)
    | Some [ n ] when W.find n <> None ->
      let spec = Option.get (W.find n) in
      (n, spec.W.build, scale_of spec)
    | _ ->
      let spec = Option.get (W.find "word_count") in
      (spec.W.name, spec.W.build, scale_of spec)
  in
  let run provenance =
    let prog = build scale in
    let m =
      Measure'.run (fun () -> D.run ~config:{ D.default_config with provenance } prog)
    in
    let props =
      Option.value ~default:0 (Fsam_obs.Metrics.find_counter "sparse.propagations")
    in
    let records = Option.value ~default:0 (Fsam_obs.Metrics.find_gauge "prov.records") in
    (m.Measure'.value, m.Measure'.wall_seconds, props, records)
  in
  let d_off, _, p_off, _ = run false in
  let d_on, _, p_on, records = run true in
  let best provenance =
    List.fold_left
      (fun acc () ->
        let _, w, _, _ = run provenance in
        Float.min acc w)
      infinity [ (); (); () ]
  in
  let w_off = best false in
  let w_on = best true in
  let identical = Fsam_serve.Engine.same_results d_off d_on in
  let overhead_pct = 100. *. ((w_on -. w_off) /. Float.max 1e-9 w_off) in
  Printf.printf
    "Provenance guard (%s, scale %d):\n\
    \  results identical off/on: %s\n\
    \  propagations off/on:      %d / %d (%s)\n\
    \  recorded derivations:     %d\n\
    \  wall off/on:              %.3fs / %.3fs (recording overhead %+.1f%%)\n"
    name scale
    (if identical then "yes" else "NO")
    p_off p_on
    (if p_off = p_on then "equal" else "DIFFER")
    records w_off w_on overhead_pct;
  write_bench "BENCH_prov.json"
    (J.Obj
       [
         ("schema", J.String "fsam.bench.prov/1");
         ("quick", J.Bool !quick);
         ("program", J.String name);
         ("scale", J.Int scale);
         ("identical_results", J.Bool identical);
         ("propagations_off", J.Int p_off);
         ("propagations_on", J.Int p_on);
         ("prov_records", J.Int records);
         ("wall_off_s", J.Float w_off);
         ("wall_on_s", J.Float w_on);
         ("recording_overhead_pct", J.Float overhead_pct);
       ]);
  if not identical then begin
    Printf.eprintf "error: provenance recording changed the analysis results\n";
    exit 1
  end;
  if p_off <> p_on then begin
    Printf.eprintf "error: provenance recording changed the propagation count\n";
    exit 1
  end

(* ------------------------------------------------------------------------- *)
(* serve — incremental edit+query stream against the resident engine.        *)
(* ------------------------------------------------------------------------- *)

module Eng = Fsam_serve.Engine
module FAst = Fsam_frontend.Ast

(* the shape-preserving edit (same statement template, so every pre-phase
   reuse guard holds): retarget the first "g... = p..." global publish in
   [fn] to the module heap handle *)
let serve_replace_edit source ~fn =
  let ast = Fsam_frontend.Parser.parse_string source in
  let found = ref false in
  let fix_stmt = function
    | FAst.Sassign (FAst.Eid g, FAst.Eid p)
      when (not !found)
           && String.length g > 0
           && g.[0] = 'g'
           && String.length p > 0
           && p.[0] = 'p' ->
      found := true;
      FAst.Sassign (FAst.Eid g, FAst.Eid "bh")
    | s -> s
  in
  let ast' =
    List.map
      (function
        | FAst.Dfun f when f.FAst.fname = fn ->
          FAst.Dfun { f with FAst.body = List.map fix_stmt f.FAst.body }
        | d -> d)
      ast
  in
  if not !found then failwith (Printf.sprintf "no global publish to retarget in %s" fn);
  Fsam_frontend.Pretty.to_string ast'

(* the shape-changing edit: append one statement, so statement counts drift
   and the pre-phases must fall back (the sparse solve stays warm) *)
let serve_append_edit source ~fn =
  let ast = Fsam_frontend.Parser.parse_string source in
  let found = ref false in
  let ast' =
    List.map
      (function
        | FAst.Dfun f when f.FAst.fname = fn ->
          found := true;
          FAst.Dfun
            { f with FAst.body = f.FAst.body @ [ FAst.Sassign (FAst.Eid "g1_0", FAst.Eid "bh") ] }
        | d -> d)
      ast
  in
  if not !found then failwith (Printf.sprintf "no %s in synth source" fn);
  Fsam_frontend.Pretty.to_string ast'

let pre_work_of (w : Eng.work) =
  w.Eng.wk_andersen_props + w.Eng.wk_mhp_summaries + w.Eng.wk_svfg_pairs

(* Observability overhead: the identical resident-query stream through the
   protocol layer with the full telemetry stack (per-request histograms,
   flight recorder, slow-log threshold at its default) vs disabled.
   Queries are the per-request hot path, so this bounds the tax.
   Interleaved best-of-batches: a resident query is ~100us, so a sequential
   A-then-B comparison is dominated by GC/scheduler drift; alternating
   batches see the same machine state, and the minimum batch mean is the
   honest floor for each config. Returns (on_us, off_us) per query. *)
let serve_obs_measure ~large ~source =
  let module P = Fsam_serve.Protocol in
  let module St = Fsam_serve.Stats in
  let obs_batches, obs_per_batch = if large then (4, 125) else (8, 500) in
  let mk ~obs =
    let stats =
      if obs then St.create ~flight_cap:256 ~slow_ms:100.0 ()
      else St.create ~flight_cap:0 ~slow_ms:(-1.0) ()
    in
    let srv = P.create ~stats (Eng.create ()) in
    ignore
      (P.handle_line srv
         (J.to_string ~minify:true
            (J.Obj [ ("id", J.Int 0); ("op", J.String "load"); ("source", J.String source) ])));
    (srv, stats)
  in
  let srv_on, stats_on = mk ~obs:true in
  let srv_off, stats_off = mk ~obs:false in
  let q =
    J.to_string ~minify:true
      (J.Obj [ ("id", J.Int 1); ("op", J.String "points-to"); ("var", J.String "out") ])
  in
  let batch srv =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to obs_per_batch do
      ignore (P.handle_line srv q)
    done;
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int obs_per_batch
  in
  ignore (batch srv_on);
  ignore (batch srv_off);
  let best_on = ref infinity and best_off = ref infinity in
  for _ = 1 to obs_batches do
    best_on := Float.min !best_on (batch srv_on);
    best_off := Float.min !best_off (batch srv_off)
  done;
  St.close stats_on;
  St.close stats_off;
  (!best_on, !best_off)

(* Standalone entry for the measurement above ([--only serveobs]): two
   resident daemons (telemetry on / off) at the chosen --size, without the
   rest of the serve tier — at paper scale that tier costs tens of minutes,
   this costs two loads. Print-only: no BENCH file, no gate row. *)
let serve_obs_bench () =
  let large = !size = "large" in
  let name = if large then "synth_large" else "synth_quick" in
  let params =
    if large then Fsam_workloads.Minic_synth.large else Fsam_workloads.Minic_synth.quick
  in
  Printf.printf "Serve observability-overhead tier: resident queries on %s.\n%!" name;
  let source = Fsam_workloads.Minic_synth.generate params in
  let on_us, off_us = serve_obs_measure ~large ~source in
  Printf.printf
    "  observability tax on resident queries: %.1fus on vs %.1fus off (%+.1f%%)\n\n%!"
    on_us off_us
    (100. *. (on_us -. off_us) /. Float.max 1e-9 off_us)

let serve_load eng source =
  let t0 = Unix.gettimeofday () in
  match Eng.load eng source with
  | Ok li -> (li, Unix.gettimeofday () -. t0)
  | Error e ->
    Printf.eprintf "error: serve load failed: %s\n" e;
    exit 1

(* edit row key -> span name of the warm run *)
let serve_phase_walls =
  [
    ("andersen_wall_s", "phase.pre");
    ("threads_wall_s", "phase.threads");
    ("mhp_wall_s", "phase.mhp");
    ("locks_wall_s", "phase.locks");
    ("svfg_wall_s", "phase.svfg");
    ("solve_wall_s", "phase.solve");
    ("solve_plan_s", "solve.plan");
    ("solve_preload_s", "solve.preload");
  ]

(* Apply [script] to the loaded engine, one edit at a time, and render one
   row per edit: the exact warm/cold pre-phase work and propagation
   counters, the identity verdict (differential mode only), which phases
   were reused, and the per-phase walls. [after_edit kind wall] runs after
   each edit. *)
let serve_edits eng ~source ~load_pre_work ~after_edit script =
  let cur = ref source in
  List.map
    (fun (kind, fn, mk) ->
      cur := mk !cur ~fn;
      let t0 = Unix.gettimeofday () in
      let info =
        match Eng.edit_source eng !cur with
        | Ok i -> i
        | Error e ->
          Printf.eprintf "error: serve edit %s %s failed: %s\n" kind fn e;
          exit 1
      in
      let wall = Unix.gettimeofday () -. t0 in
      after_edit kind wall;
      let warm_pre = pre_work_of info.Eng.e_work in
      let cold_pre =
        match info.Eng.e_cold_work with Some w -> pre_work_of w | None -> load_pre_work
      in
      let phases_reused =
        match info.Eng.e_phases with
        | Some p ->
          [
            ("andersen_warm", J.Bool p.Eng.ph_andersen_warm);
            ("tm_reused", J.Bool p.Eng.ph_tm_reused);
            ("mhp_reused", J.Bool p.Eng.ph_mhp_reused);
            ("locks_reused", J.Bool p.Eng.ph_locks_reused);
            ("svfg_patched", J.Bool p.Eng.ph_svfg_patched);
          ]
        | None -> []
      in
      (* per-phase walls of the accepted warm run; whatever the edit wall
         doesn't cover here is parse/lower/diff overhead outside the
         driver's six phases. The solve's plan and preload are parts of
         its wall. *)
      let phase_walls =
        match info.Eng.e_phases with
        | Some p ->
          List.map
            (fun (k, name) -> (k, J.Float (Fsam_obs.Span.duration name p.Eng.ph_run)))
            serve_phase_walls
        | None -> []
      in
      let mode = match info.Eng.e_mode with `Incremental -> "incremental" | `Cold -> "cold" in
      Printf.printf
        "  %-8s %-6s | mode %-11s | pre-work warm %7d cold %7d (%.1fx) | %6.2fs%s\n%!" kind fn
        mode warm_pre cold_pre
        (float_of_int cold_pre /. float_of_int (max 1 warm_pre))
        wall
        (match info.Eng.e_identical with
        | Some true -> " | identical"
        | Some false -> " | DIFFERS"
        | None -> "");
      J.Obj
        ([
           ("kind", J.String kind);
           ("fn", J.String fn);
           ("mode", J.String mode);
           ("warm_pre_work", J.Int warm_pre);
           ("cold_pre_work", J.Int cold_pre);
           ("pre_work_ratio", J.Float (float_of_int cold_pre /. float_of_int (max 1 warm_pre)));
           ("warm_propagations", J.Int info.Eng.e_propagations);
           ("fallbacks", J.List (List.map (fun k -> J.String k) info.Eng.e_fallbacks));
           ("wall_s", J.Float wall);
         ]
        @ (match info.Eng.e_cold_propagations with
          | Some p -> [ ("cold_propagations", J.Int p) ]
          | None -> [])
        @ (match info.Eng.e_identical with Some b -> [ ("identical", J.Bool b) ] | None -> [])
        @ (if phases_reused = [] then [] else [ ("phases_reused", J.Obj phases_reused) ])
        @ phase_walls))
    script

(* Replays a scripted edit+query stream against the resident engine and
   persists the exact warm/cold work counters per edit — the deterministic
   trajectory of the incremental pre-phases. The small tier (synth quick)
   runs every edit in differential mode, so each row carries the matching
   cold run's counters and a byte-identity verdict; CI gates it exactly.
   Its second row replays the same script on a deep-chain program (depth
   10), where a warm solve once diverged from the cold rebuild.
   --size large replays on the 100+ KLOC synth program without the
   differential cross-check (a cold reference run costs minutes there) —
   its cold work reference is the cold load of the same program. *)
let serve_bench () =
  let large = !size = "large" in
  let name = if large then "synth_large" else "synth_quick" in
  let params =
    if large then Fsam_workloads.Minic_synth.large else Fsam_workloads.Minic_synth.quick
  in
  let source = Fsam_workloads.Minic_synth.generate params in
  Printf.printf
    "Serve tier: scripted edit+query stream on %s (differential %s).\n" name
    (if large then "off — cold reference is the load" else "on");
  let eng = Eng.create ~differential:(not large) () in
  let li, load_wall = serve_load eng source in
  let load_pre_work = pre_work_of li.Eng.l_work in
  Printf.printf "  cold load: %.2fs (pre-phase work %d, races %d)\n%!" load_wall
    load_pre_work li.Eng.l_races;
  let query_us = ref [] in
  let run_queries () =
    (* a resident points-to probe per edit, on a spread of variables *)
    let d = Eng.driver eng in
    let n = Prog.n_vars d.D.prog in
    List.iter
      (fun v ->
        let q0 = Unix.gettimeofday () in
        ignore (D.pt d v);
        query_us := ((Unix.gettimeofday () -. q0) *. 1e6) :: !query_us)
      [ 0; n / 2; n - 1 ]
  in
  let script =
    [ ("replace", "f1_1", serve_replace_edit); ("replace", "f2_2", serve_replace_edit) ]
    @ (if large then [] else [ ("append", "f1_0", serve_append_edit) ])
  in
  let replace_walls = ref [] in
  let edit_rows =
    serve_edits eng ~source ~load_pre_work script ~after_edit:(fun kind wall ->
        if kind = "replace" then replace_walls := wall :: !replace_walls;
        run_queries ())
  in
  let deep_row =
    if large then []
    else begin
      let params =
        {
          Fsam_workloads.Minic_synth.large with
          Fsam_workloads.Minic_synth.modules = 4;
          chain_depth = 10;
          stmts_per_fn = 40;
        }
      in
      let source = Fsam_workloads.Minic_synth.generate params in
      Printf.printf "  synth_deep (4 modules, depth 10), differential on:\n%!";
      let eng = Eng.create ~differential:true () in
      let li, load_wall = serve_load eng source in
      let load_pre_work = pre_work_of li.Eng.l_work in
      let edits =
        serve_edits eng ~source ~load_pre_work script ~after_edit:(fun _ _ -> ())
      in
      [
        J.Obj
          [
            ("program", J.String "synth_deep");
            ("differential", J.Bool true);
            ("races", J.Int li.Eng.l_races);
            ("cold_load_pre_work", J.Int load_pre_work);
            ("cold_load_wall_s", J.Float load_wall);
            ("edits", J.List edits);
            ("fallback_cold", J.Int (Eng.fallback_total eng));
          ];
      ]
    end
  in
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l)) in
  (* Wall-clock speedup: in the differential (quick) tier every edit above
     also ran the cold reference pipeline, so its wall is not the warm
     latency a client would see. Re-measure on a second, non-differential
     engine replaying the same replace edits. *)
  let load_ref_wall, warm_edit_wall =
    if large then (load_wall, mean !replace_walls)
    else begin
      let eng2 = Eng.create ~differential:false () in
      let t0 = Unix.gettimeofday () in
      (match Eng.load eng2 source with
      | Ok _ -> ()
      | Error e ->
        Printf.eprintf "error: serve timing load failed: %s\n" e;
        exit 1);
      let lw = Unix.gettimeofday () -. t0 in
      let cur = ref source in
      let walls =
        List.map
          (fun fn ->
            cur := serve_replace_edit !cur ~fn;
            let t0 = Unix.gettimeofday () in
            (match Eng.edit_source eng2 !cur with
            | Ok _ -> ()
            | Error e ->
              Printf.eprintf "error: serve timing edit failed: %s\n" e;
              exit 1);
            Unix.gettimeofday () -. t0)
          [ "f1_1"; "f2_2" ]
      in
      (lw, mean walls)
    end
  in
  let warm_speedup = load_ref_wall /. Float.max 1e-9 warm_edit_wall in
  Printf.printf
    "  mean warm (replace) edit: %.3fs vs cold load %.3fs — %.1fx; query mean %.0fus\n%!"
    warm_edit_wall load_ref_wall warm_speedup (mean !query_us);
  let obs_on_us, obs_off_us = serve_obs_measure ~large ~source in
  let obs_overhead_pct = 100. *. (obs_on_us -. obs_off_us) /. Float.max 1e-9 obs_off_us in
  Printf.printf
    "  observability tax on resident queries: %.1fus on vs %.1fus off (%+.1f%%)\n\n%!"
    obs_on_us obs_off_us obs_overhead_pct;
  write_bench
    (if large then "BENCH_serve_large.json" else "BENCH_serve.json")
    (J.Obj
       [
         ( "schema",
           J.String (if large then "fsam.bench.serve_large/1" else "fsam.bench.serve/1") );
         ("quick", J.Bool !quick);
         ( "rows",
           J.List
             (J.Obj
                [
                  ("program", J.String name);
                  ("differential", J.Bool (not large));
                  ("races", J.Int li.Eng.l_races);
                  ("cold_load_pre_work", J.Int load_pre_work);
                  ("cold_load_wall_s", J.Float load_wall);
                  ("edits", J.List edit_rows);
                  ("fallback_cold", J.Int (Eng.fallback_total eng));
                  ("mean_query_us", J.Float (mean !query_us));
                  ("warm_edit_wall_s", J.Float warm_edit_wall);
                  ("warm_speedup", J.Float warm_speedup);
                  ("obs_query_on_us", J.Float obs_on_us);
                  ("obs_query_off_us", J.Float obs_off_us);
                  ("obs_overhead_pct", J.Float obs_overhead_pct);
                ]
             :: deep_row) );
       ])

(* ------------------------------------------------------------------------- *)
(* Micro-benchmarks (bechamel): core kernels.                                 *)
(* ------------------------------------------------------------------------- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let small_prog = (Option.get (W.find "word_count")).build 60 in
  let iset_a = Fsam_dsa.Iset.of_list (List.init 200 (fun i -> i * 7))
  and iset_b = Fsam_dsa.Iset.of_list (List.init 200 (fun i -> (i * 11) + 3)) in
  let ast = Fsam_andersen.Solver.run small_prog in
  let icfg = Fsam_mta.Icfg.build small_prog ast in
  let tm = Fsam_mta.Threads.build small_prog ast icfg in
  let mr = Fsam_andersen.Modref.compute small_prog ast in
  let mhp = Fsam_mta.Mhp.compute tm in
  let lk = Fsam_mta.Locks.compute small_prog ast tm in
  let pcg = Fsam_mta.Pcg.compute tm icfg in
  let tests =
    [
      Test.make ~name:"iset.union"
        (Staged.stage (fun () -> Fsam_dsa.Iset.union iset_a iset_b));
      Test.make ~name:"iset.union_fresh"
        (* defeat the memo: one operand rebuilt per run *)
        (Staged.stage (fun () ->
             Fsam_dsa.Iset.union iset_a
               (Fsam_dsa.Iset.add (Random.int 100000) iset_b)));
      Test.make ~name:"iset.inter"
        (Staged.stage (fun () -> Fsam_dsa.Iset.inter iset_a iset_b));
      Test.make ~name:"sparse.solve"
        (* the pre-phases are served from the hooks, so this times the solve
           phase (plus the modref/pcg recomputation the driver always does) *)
        (Staged.stage
           (let svfg = Fsam_memssa.Svfg.build small_prog ast mr tm mhp lk pcg in
            let warm =
              {
                D.cold_hooks with
                D.wh_andersen = (fun _ -> Some ast);
                wh_thread_model = (fun _ _ -> Some (icfg, tm));
                wh_mhp = (fun _ -> Some mhp);
                wh_locks = (fun _ _ _ -> Some lk);
                wh_svfg = (fun _ _ _ _ _ _ _ -> Some svfg);
              }
            in
            fun () -> D.run ~warm small_prog));
      Test.make ~name:"andersen.solve"
        (Staged.stage (fun () -> Fsam_andersen.Solver.run small_prog));
      Test.make ~name:"threads.build"
        (Staged.stage (fun () -> Fsam_mta.Threads.build small_prog ast icfg));
      Test.make ~name:"mhp.compute" (Staged.stage (fun () -> Fsam_mta.Mhp.compute tm));
      Test.make ~name:"locks.compute"
        (Staged.stage (fun () -> Fsam_mta.Locks.compute small_prog ast tm));
      Test.make ~name:"svfg.build"
        (Staged.stage (fun () ->
             Fsam_memssa.Svfg.build small_prog ast mr tm mhp lk pcg));
      Test.make ~name:"fsam.pipeline" (Staged.stage (fun () -> D.run small_prog));
    ]
  in
  Printf.printf "Micro-benchmarks (bechamel, monotonic clock):\n";
  List.iter
    (fun test ->
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
      in
      let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
      let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) ->
            if est > 1e6 then Printf.printf "  %-20s %12.3f ms/run\n" name (est /. 1e6)
            else if est > 1e3 then Printf.printf "  %-20s %12.3f us/run\n" name (est /. 1e3)
            else Printf.printf "  %-20s %12.1f ns/run\n" name est
          | _ -> Printf.printf "  %-20s (no estimate)\n" name)
        results;
      flush stdout)
    tests;
  Printf.printf "\n"

(* ------------------------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | [] -> []
    | "--budget" :: v :: rest ->
      budget := float_of_string v;
      parse rest
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--only" :: v :: rest ->
      only := Some (String.split_on_char ',' v);
      parse rest
    | "--size" :: v :: rest ->
      if v <> "small" && v <> "large" then begin
        Printf.eprintf "unknown --size %S (small|large)\n" v;
        exit 1
      end;
      size := v;
      parse rest
    | x :: rest -> x :: parse rest
  in
  let cmds = match parse (List.tl args) with [] -> [ "all" ] | l -> l in
  List.iter
    (fun cmd ->
      match cmd with
      | "table1" -> table1 ()
      | "table2" -> table2 ()
      | "figure12" -> figure12 ()
      | "large" -> large ()
      | "vf" -> vf ()
      | "prov" -> prov_bench ()
      | "serve" -> serve_bench ()
      | "serveobs" -> serve_obs_bench ()
      | "micro" -> micro ()
      | "all" ->
        table1 ();
        table2 ();
        figure12 ();
        vf ();
        prov_bench ();
        serve_bench ();
        micro ()
      | other ->
        Printf.eprintf
          "unknown command %S (table1|table2|figure12|large|vf|prov|serve|serveobs|micro|all)\n"
          other;
        exit 1)
    cmds
