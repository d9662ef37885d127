(* fsam — command-line driver: analyze MiniC programs with FSAM, the
   NonSparse baseline or Andersen's analysis; detect races; dump IR; run the
   concrete interpreter; list and analyze the built-in benchmark suite. *)

open Cmdliner
module D = Fsam_core.Driver
module Prog = Fsam_ir.Prog

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_program source =
  match Fsam_workloads.Suite.find source with
  | Some spec -> spec.Fsam_workloads.Suite.build spec.Fsam_workloads.Suite.scale
  | None -> Fsam_frontend.Lower.compile_string (read_file source)

let config_of_string = function
  | "full" -> Ok D.default_config
  | "no-interleaving" -> Ok D.no_interleaving
  | "no-value-flow" -> Ok D.no_value_flow
  | "no-lock" -> Ok D.no_lock
  | s -> Error (Printf.sprintf "unknown configuration %S" s)

(* -- arguments ------------------------------------------------------------- *)

let source_arg =
  let doc =
    "Program to analyze: a MiniC source file, or the name of a built-in \
     benchmark (word_count, kmeans, radiosity, automount, ferret, bodytrack, \
     httpd_server, mt_daapd, raytrace, x264)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let config_arg =
  let doc = "Analysis configuration: full, no-interleaving, no-value-flow, no-lock." in
  Arg.(value & opt string "full" & info [ "config" ] ~docv:"CONFIG" ~doc)

let with_program f source =
  match load_program source with
  | prog -> f prog
  | exception Fsam_frontend.Lexer.Error e | exception Fsam_frontend.Parser.Error e
  | exception Fsam_frontend.Lower.Error e ->
    Printf.eprintf "error: %s\n" e;
    exit 1
  | exception Sys_error e ->
    Printf.eprintf "error: %s\n" e;
    exit 1

(* -- analyze ---------------------------------------------------------------- *)

module T = Fsam_core.Telemetry

(* Arm the crash flush before the pipeline runs: if the analysis dies, the
   requested --json / --trace files still get partial documents built from
   the open span stack. A successful export disarms both. *)
let arm_crash_flush ~json ~trace =
  (match json with Some p when p <> "-" -> T.flush_at_exit p | _ -> ());
  match trace with Some p -> Fsam_obs.Trace.flush_at_exit p | None -> ()

(* the one JSON writer of every command: write the document ([-] for
   stdout) and/or the Chrome trace of the spans recorded by the last
   pipeline run *)
let export ~json ~trace mk_doc =
  try
    (match json with
    | Some "-" -> Fsam_obs.Json.to_channel stdout (mk_doc ())
    | Some path -> T.write_json path (mk_doc ())
    | None -> ());
    (match trace with Some path -> T.write_trace path | None -> ());
    T.mark_flushed ();
    Fsam_obs.Trace.mark_flushed ()
  with Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the full report, metrics registry and span tree as JSON \
                 ($(b,-) for stdout).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write the span tree in Chrome trace_event format \
                 (chrome://tracing, Perfetto).")

let provenance_arg =
  Arg.(value & flag
       & info [ "provenance" ]
           ~doc:"Record derivation provenance during the run (fsam engine): every \
                 points-to fact keeps the edge that introduced it, every store its \
                 strong/weak verdict and every [THREAD-VF] candidate its \
                 MHP/lock verdict. Results are identical; see $(b,fsam explain).")

let profile_flag =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Enable the execution profiler (fsam engine): the solver \
                 convergence curve in --json. Results are identical; see \
                 $(b,fsam profile) for the report view.")

let analyze source config_name engine dump_pts json trace nonsparse_budget provenance
    profile =
  with_program
    (fun prog ->
      arm_crash_flush ~json ~trace;
      (* the tail every engine shares: measure the run, let [show] print its
         summary (and say whether it finished, i.e. has a time line), then
         export the telemetry document *)
      let measured ?report ~engine run show =
        let m = Fsam_core.Measure.run run in
        let v = m.Fsam_core.Measure.value in
        if show v then
          Format.printf "time: %.3fs (%.3fs cpu), live heap: %.1f MB@."
            m.Fsam_core.Measure.wall_seconds m.Fsam_core.Measure.cpu_seconds
            m.Fsam_core.Measure.live_mb;
        export ~json ~trace (fun () ->
            T.analysis_json ~program:source ~engine ~config:config_name
              ~wall_seconds:m.Fsam_core.Measure.wall_seconds
              ~cpu_seconds:m.Fsam_core.Measure.cpu_seconds
              ~live_mb:m.Fsam_core.Measure.live_mb
              ?report:(Option.map (fun f -> f v) report)
              ());
        v
      in
      let dump pt =
        if dump_pts then
          for v = 0 to Prog.n_vars prog - 1 do
            match pt v with
            | [] -> ()
            | names ->
              Format.printf "pt(%s) = {%s}@." (Prog.var_name prog v)
                (String.concat ", " names)
          done
      in
      match engine with
      | "andersen" ->
        let a =
          measured ~engine:"andersen"
            (fun () -> Fsam_andersen.Solver.run prog)
            (fun a ->
              Format.printf "%a@." Fsam_andersen.Solver.pp_stats a;
              true)
        in
        dump (fun v ->
            List.map (Prog.obj_name prog)
              (Fsam_dsa.Iset.elements (Fsam_andersen.Solver.pt_var a v)))
      | "nonsparse" ->
        let config =
          match nonsparse_budget with
          | Some b -> { D.default_config with nonsparse_budget = b }
          | None -> D.default_config
        in
        ignore
          (measured ~engine:"nonsparse"
             (fun () -> D.run_nonsparse ~config prog)
             (fun (outcome, _) ->
               match outcome with
               | Fsam_core.Nonsparse.Done ns ->
                 Format.printf "%a@." Fsam_core.Nonsparse.pp_stats ns;
                 true
               | Fsam_core.Nonsparse.Timeout budget ->
                 Format.printf "nonsparse: OOT (budget %.0fs exceeded)@." budget;
                 Printf.eprintf
                   "nonsparse: analysis ran OUT OF TIME after %.0f s of CPU time and \
                    produced no points-to results.\n\
                    Raise the limit with --nonsparse-budget SECONDS, shrink the \
                    program, or use --engine fsam (the sparse analysis, usually \
                    orders of magnitude faster).\n"
                   budget;
                 false))
      | "fsam" -> (
        match config_of_string config_name with
        | Error e ->
          Printf.eprintf "error: %s\n" e;
          exit 1
        | Ok config ->
          let config =
            {
              config with
              provenance;
              profile;
              nonsparse_budget =
                Option.value ~default:config.D.nonsparse_budget nonsparse_budget;
            }
          in
          let d =
            measured ~engine:"fsam" ~report:Fsam_core.Report.build
              (fun () -> D.run ~config prog)
              (fun d ->
                Format.printf "%a@." D.pp_summary d;
                true)
          in
          dump (D.pt_names d))
      | e ->
        Printf.eprintf "error: unknown engine %S (fsam, nonsparse, andersen)\n" e;
        exit 1)
    source

let analyze_cmd =
  let engine =
    Arg.(value & opt string "fsam" & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Analysis engine: fsam, nonsparse or andersen.")
  in
  let dump =
    Arg.(value & flag & info [ "dump-pts" ] ~doc:"Print non-empty points-to sets.")
  in
  let nonsparse_budget =
    Arg.(value & opt (some float) None
         & info [ "nonsparse-budget" ] ~docv:"SECONDS"
             ~doc:"CPU-time budget for the nonsparse engine before it reports \
                   OOT (default 7200).")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run a pointer analysis on a program")
    Term.(
      const analyze $ source_arg $ config_arg $ engine $ dump $ json_arg
      $ trace_arg $ nonsparse_budget $ provenance_arg $ profile_flag)

(* -- races ------------------------------------------------------------------- *)

let races source json trace provenance =
  with_program
    (fun prog ->
      arm_crash_flush ~json ~trace;
      let d = D.run ~config:{ D.default_config with provenance } prog in
      let rs = Fsam_core.Races.detect d in
      if rs = [] then Format.printf "no data races found@."
      else begin
        Format.printf "%d potential data race(s):@." (List.length rs);
        List.iteri
          (fun i r ->
            Format.printf "  [%d] %a@." i (Fsam_core.Races.pp_race d) r;
            match Fsam_core.Explain.witness d r with
            | Some w -> Format.printf "  %a@." (Fsam_core.Explain.pp_witness d) w
            | None -> ())
          rs
      end;
      export ~json ~trace (fun () -> T.races_json d rs))
    source

let races_cmd =
  Cmd.v
    (Cmd.info "races" ~doc:"Detect data races using FSAM's points-to results")
    Term.(const races $ source_arg $ json_arg $ trace_arg $ provenance_arg)

(* -- explain ------------------------------------------------------------------ *)

module E = Fsam_core.Explain
module J = Fsam_obs.Json

let lookup prog kind what s =
  match Prog.lookup prog kind s with
  | Some i -> i
  | None ->
    Printf.eprintf "error: unknown %s %S\n" what s;
    exit 1

let split_args ~what ~n s =
  let parts = String.split_on_char ',' (String.trim s) in
  if List.length parts <> n then begin
    Printf.eprintf "error: %s expects %d comma-separated arguments, got %S\n" what n s;
    exit 1
  end;
  List.map String.trim parts

let parse_gid prog s =
  match int_of_string_opt s with
  | Some g when g >= 0 && g < Prog.n_stmts prog -> g
  | _ ->
    Printf.eprintf "error: %S is not a statement gid (0..%d)\n" s (Prog.n_stmts prog - 1);
    exit 1

let explain source why_pt why_andersen why_mhp why_edge why_race json max_depth =
  with_program
    (fun prog ->
      if why_pt = None && why_andersen = None && why_mhp = None && why_edge = None
         && why_race = None
      then begin
        Printf.eprintf
          "error: nothing to explain — pass --why-pt, --why-pt-andersen, --why-mhp, \
           --why-edge or --why-race\n";
        exit 1
      end;
      (* provenance is the whole point of this command *)
      let d = D.run ~config:{ D.default_config with provenance = true } prog in
      let queries = ref [] in
      let record q j = queries := J.Obj [ ("query", J.String q); ("result", j) ] :: !queries in
      let var_of = lookup prog `Var "variable" and obj_of = lookup prog `Obj "object" in
      (match why_pt with
      | None -> ()
      | Some s ->
        let v, o =
          match split_args ~what:"--why-pt" ~n:2 s with
          | [ sv; so ] -> (var_of sv, obj_of so)
          | _ -> assert false
        in
        (match E.why_pt ~max_depth d v o with
        | None ->
          Format.printf "pt(%s) does not contain %s@." (Prog.var_name prog v)
            (Prog.obj_name prog o);
          record ("why-pt " ^ s) J.Null
        | Some chain ->
          Format.printf "%a" (E.pp_chain d) chain;
          Format.printf "replay: %s@." (if E.replay d chain then "ok" else "FAILED");
          record ("why-pt " ^ s) (E.chain_json d chain)));
      (match why_andersen with
      | None -> ()
      | Some s ->
        let v, o =
          match split_args ~what:"--why-pt-andersen" ~n:2 s with
          | [ sv; so ] -> (var_of sv, obj_of so)
          | _ -> assert false
        in
        (match E.why_pt_andersen ~max_depth d v o with
        | None ->
          Format.printf "andersen pt(%s) does not contain %s@." (Prog.var_name prog v)
            (Prog.obj_name prog o);
          record ("why-pt-andersen " ^ s) J.Null
        | Some chain ->
          Format.printf "%a" (E.pp_chain d) chain;
          Format.printf "replay: %s@." (if E.replay d chain then "ok" else "FAILED");
          record ("why-pt-andersen " ^ s) (E.chain_json d chain)));
      (match why_mhp with
      | None -> ()
      | Some s ->
        let g1, g2 =
          match split_args ~what:"--why-mhp" ~n:2 s with
          | [ a; b ] -> (parse_gid prog a, parse_gid prog b)
          | _ -> assert false
        in
        (match E.why_mhp d g1 g2 with
        | None ->
          Format.printf "#%d and #%d never happen in parallel@." g1 g2;
          record ("why-mhp " ^ s) J.Null
        | Some j ->
          Format.printf "%a@." (E.pp_mhp d) j;
          record ("why-mhp " ^ s) (E.mhp_json d j)));
      (match why_edge with
      | None -> ()
      | Some s ->
        let store, o, access =
          match split_args ~what:"--why-edge" ~n:3 s with
          | [ a; b; c ] -> (parse_gid prog a, obj_of b, parse_gid prog c)
          | _ -> assert false
        in
        let v = E.why_edge d ~store ~obj:o ~access in
        Format.printf "[THREAD-VF] %d --%s--> %d: %a@." store (Prog.obj_name prog o)
          access (E.pp_edge_verdict d) v;
        record ("why-edge " ^ s) (E.edge_verdict_json d v));
      (match why_race with
      | None -> ()
      | Some idx ->
        let rs = Fsam_core.Races.detect d in
        if idx < 0 || idx >= List.length rs then begin
          Printf.eprintf "error: race index %d out of range (%d race(s) found)\n" idx
            (List.length rs);
          exit 1
        end;
        let r = List.nth rs idx in
        (match E.witness d r with
        | Some w ->
          Format.printf "%a@." (E.pp_witness d) w;
          record (Printf.sprintf "why-race %d" idx) (E.witness_json d w)
        | None ->
          (* unreachable: provenance is forced on above *)
          Format.printf "no witness for race %d@." idx;
          record (Printf.sprintf "why-race %d" idx) J.Null));
      export ~json ~trace:None (fun () ->
          J.Obj
            [
              ("schema", J.String "fsam.explain/1");
              ("program", J.String source);
              ("queries", J.List (List.rev !queries));
            ]))
    source

let explain_cmd =
  let opt_str names docv doc =
    Arg.(value & opt (some string) None & info names ~docv ~doc)
  in
  let why_pt =
    opt_str [ "why-pt" ] "VAR,OBJ"
      "Explain why the sparse solution has OBJ in pt(VAR). VAR and OBJ are \
       source names or numeric ids."
  in
  let why_andersen =
    opt_str [ "why-pt-andersen" ] "VAR,OBJ"
      "Same question against the Andersen pre-analysis (inclusion-edge chain)."
  in
  let why_mhp =
    opt_str [ "why-mhp" ] "GID1,GID2"
      "Explain why two statement gids may happen in parallel: witness instance \
       pair, thread relation and fork chains."
  in
  let why_edge =
    opt_str [ "why-edge" ] "STORE,OBJ,ACCESS"
      "Show the recorded [THREAD-VF] verdict for the candidate pair: kept \
       (racy or protected-but-interfering), filtered by the lock-span \
       non-interference test (with the justifying span pair), or skipped by MHP."
  in
  let why_race =
    Arg.(value & opt (some int) None
         & info [ "why-race" ] ~docv:"N"
             ~doc:"Print the full witness of the N-th race (0-based, as numbered \
                   by $(b,fsam races)).")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write all query results as one JSON document ($(b,-) for stdout).")
  in
  let max_depth =
    Arg.(value & opt int 64
         & info [ "max-depth" ] ~docv:"N" ~doc:"Derivation-chain depth bound.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain analysis results from recorded provenance"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Re-runs the analysis with provenance recording forced on, then \
              answers one or more queries from the recorded derivations: \
              points-to chains, MHP justifications, [THREAD-VF] edge verdicts \
              and full race witnesses. Recording changes no results.";
         ])
    Term.(
      const explain $ source_arg $ why_pt $ why_andersen $ why_mhp $ why_edge
      $ why_race $ json $ max_depth)

(* -- deadlocks ---------------------------------------------------------------- *)

let deadlocks source =
  with_program
    (fun prog ->
      let d = D.run prog in
      let dls = Fsam_core.Deadlocks.detect d in
      if dls = [] then Format.printf "no lock-order cycles found@."
      else begin
        Format.printf "%d potential deadlock(s):@." (List.length dls);
        List.iter
          (fun dl -> Format.printf "  %a@." (Fsam_core.Deadlocks.pp_deadlock d) dl)
          dls
      end)
    source

let deadlocks_cmd =
  Cmd.v
    (Cmd.info "deadlocks" ~doc:"Detect lock-order-cycle deadlocks")
    Term.(const deadlocks $ source_arg)

(* -- leaks --------------------------------------------------------------------- *)

let leaks source =
  with_program
    (fun prog ->
      let d = D.run prog in
      let fs = Fsam_core.Leaks.detect d in
      if fs = [] then Format.printf "no memory-leak findings@."
      else
        List.iter (fun f -> Format.printf "%a@." (Fsam_core.Leaks.pp_finding d) f) fs)
    source

let leaks_cmd =
  Cmd.v
    (Cmd.info "leaks" ~doc:"Detect never-freed allocations and double frees")
    Term.(const leaks $ source_arg)

(* -- instrument ---------------------------------------------------------------- *)

let instrument source =
  with_program
    (fun prog ->
      let d = D.run prog in
      let r = Fsam_core.Instrument.analyze d in
      Format.printf
        "%d of %d loads/stores need dynamic race checks (%.1f%% of instrumentation \
         removable)@."
        r.Fsam_core.Instrument.instrumented r.Fsam_core.Instrument.total_accesses
        (100. *. r.Fsam_core.Instrument.reduction))
    source

let instrument_cmd =
  Cmd.v
    (Cmd.info "instrument"
       ~doc:"Report which accesses a dynamic race detector must instrument")
    Term.(const instrument $ source_arg)

(* -- dump-ir ------------------------------------------------------------------ *)

let dump_ir source =
  with_program (fun prog -> Format.printf "%a@." Prog.pp prog) source

let dump_ir_cmd =
  Cmd.v
    (Cmd.info "dump-ir" ~doc:"Print the partial-SSA IR of a program")
    Term.(const dump_ir $ source_arg)

(* -- report ------------------------------------------------------------------- *)

let report source =
  with_program
    (fun prog ->
      let d = D.run prog in
      Format.printf "%a@." Fsam_core.Report.pp (Fsam_core.Report.build d))
    source

let report_cmd =
  Cmd.v
    (Cmd.info "report" ~doc:"Full per-phase statistics of one FSAM run")
    Term.(const report $ source_arg)

(* -- profile ------------------------------------------------------------------ *)

module P = Fsam_obs.Profile

let pct num den = if den <= 0 then 100 else 100 * num / den

let print_hotspots ~top forest =
  let hs = P.hotspots forest in
  Format.printf "@.top %d spans by exclusive wall time:@." top;
  Format.printf "  %-28s %6s %10s %10s %10s@." "span" "count" "self-wall" "self-cpu" "wall";
  List.iteri
    (fun i h ->
      if i < top then
        Format.printf "  %-28s %6d %9.3fms %9.3fms %9.3fms@." h.P.hs_name h.P.hs_count
          (h.P.hs_self_wall_s *. 1e3) (h.P.hs_self_cpu_s *. 1e3) (h.P.hs_wall_s *. 1e3))
    hs

let print_convergence () =
  let samples = P.samples () in
  let stalls = P.stalls () in
  Format.printf "@.convergence (sampled every %d propagations):@." (P.sample_interval ());
  match samples with
  | [] -> Format.printf "  no samples (solver finished under one interval)@."
  | _ ->
    let last = List.nth samples (List.length samples - 1) in
    let hits = List.fold_left (fun a s -> a + s.P.s_memo_hits) 0 samples in
    let misses = List.fold_left (fun a s -> a + s.P.s_memo_misses) 0 samples in
    let peak = List.fold_left (fun a s -> max a s.P.s_depth) 0 samples in
    Format.printf
      "  %d samples; final: %d propagations, %d facts; peak depth %d; memo hit rate %d%%@."
      (List.length samples) last.P.s_prop last.P.s_facts peak
      (pct hits (hits + misses));
    List.iteri
      (fun i s ->
        if i < 5 || i >= List.length samples - 5 || List.length samples <= 10 then
          Format.printf
            "    prop %7d  depth %6d  +facts %6d  memo %3d%%@."
            s.P.s_prop s.P.s_depth s.P.s_facts_delta
            (pct s.P.s_memo_hits (s.P.s_memo_hits + s.P.s_memo_misses))
        else if i = 5 then Format.printf "    ...@.")
      samples;
    if stalls = [] then Format.printf "  no stalls detected@."
    else
      List.iter
        (fun st ->
          Format.printf
            "  STALL at propagation %d: no new facts for %d samples@."
            st.P.st_prop st.P.st_samples)
        stalls

let profile_run source config_name json trace top =
  with_program
    (fun prog ->
      arm_crash_flush ~json ~trace;
      match config_of_string config_name with
      | Error e ->
        Printf.eprintf "error: %s\n" e;
        exit 1
      | Ok config ->
        let config = { config with D.profile = true } in
        let m = Fsam_core.Measure.run (fun () -> D.run ~config prog) in
        let _d : D.t = m.Fsam_core.Measure.value in
        Format.printf "profile: %s  (config %s, %.3fs wall, %.3fs cpu)@." source config_name
          m.Fsam_core.Measure.wall_seconds m.Fsam_core.Measure.cpu_seconds;
        print_hotspots ~top (Fsam_obs.Span.roots ());
        print_convergence ();
        export ~json ~trace (fun () ->
            let measure =
              J.Obj
                [
                  ("wall_seconds", J.Float m.Fsam_core.Measure.wall_seconds);
                  ("cpu_seconds", J.Float m.Fsam_core.Measure.cpu_seconds);
                  ("live_mb", J.Float m.Fsam_core.Measure.live_mb);
                ]
            in
            match P.to_json () with
            | J.Obj (schema :: rest) ->
              J.Obj (schema :: ("program", J.String source) :: ("measure", measure) :: rest)
            | j -> j))
    source

let profile_cmd =
  let top =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"N" ~doc:"How many spans to show in the hotspot table.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the profile document (convergence curve and stalls) as \
                   JSON; $(b,-) for stdout.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run FSAM with the execution profiler and print the report"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the full pipeline with profiling enabled, then reports: the top \
              spans by exclusive time and the sparse solver's convergence curve \
              with stall warnings. Profiling changes no analysis results — \
              reports are byte-identical with it on or off.";
           `P
             "With $(b,--trace) the span tree is written as a Chrome trace (open \
              in Perfetto); with $(b,--json) the raw profile document is exported \
              for tooling.";
         ])
    Term.(
      const profile_run $ source_arg $ config_arg $ json $ trace_arg $ top)

(* -- dot ---------------------------------------------------------------------- *)

let dot source what out =
  with_program
    (fun prog ->
      let d = D.run prog in
      let text =
        match what with
        | "svfg" -> Fsam_core.Dot.svfg d
        | "callgraph" -> Fsam_core.Dot.call_graph d
        | w when String.length w > 4 && String.sub w 0 4 = "cfg:" -> (
          let fname = String.sub w 4 (String.length w - 4) in
          match Prog.find_func prog fname with
          | Some fid -> Fsam_core.Dot.cfg_of d fid
          | None ->
            Printf.eprintf "error: unknown function %S\n" fname;
            exit 1)
        | w ->
          Printf.eprintf "error: unknown graph %S (svfg | callgraph | cfg:<fn>)\n" w;
          exit 1
      in
      match out with
      | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc
      | None -> print_string text)
    source

let dot_cmd =
  let what =
    Arg.(value & opt string "svfg" & info [ "graph" ] ~docv:"WHAT"
           ~doc:"Graph to export: svfg, callgraph, or cfg:<function>.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export analysis graphs in Graphviz format")
    Term.(const dot $ source_arg $ what $ out)

(* -- interp ------------------------------------------------------------------- *)

let interp source seed =
  with_program
    (fun prog ->
      let r = Fsam_interp.Interp.run ~seed prog in
      Format.printf "executed %d steps, %d points-to observations@." r.Fsam_interp.Interp.steps
        (List.length r.Fsam_interp.Interp.observations))
    source

let interp_cmd =
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Scheduler seed.")
  in
  Cmd.v
    (Cmd.info "interp" ~doc:"Execute a program under a random thread schedule")
    Term.(const interp $ source_arg $ seed)

(* -- serve --------------------------------------------------------------------- *)

let serve program differential provenance batch socket crash_telemetry slow_ms slow_log
    flight stats_socket =
  let eng = Fsam_serve.Engine.create ~provenance ~differential () in
  (match program with
  | None -> ()
  | Some source ->
    let text =
      match Fsam_workloads.Suite.find source with
      | Some _ ->
        Printf.eprintf
          "error: %S is an IR-level benchmark; serve needs MiniC source (a file, \
           or load with {\"synth\": ...})\n"
          source;
        exit 1
      | None -> (
        try read_file source
        with Sys_error e ->
          Printf.eprintf "error: %s\n" e;
          exit 1)
    in
    (match Fsam_serve.Engine.load eng text with
    | Ok _ -> ()
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 1));
  let stats = Fsam_serve.Stats.create ~flight_cap:flight ~slow_ms ?slow_log () in
  let srv = Fsam_serve.Protocol.create ?crash_telemetry ~stats eng in
  Fsam_serve.Protocol.install_sigusr1 srv;
  let scraper =
    match stats_socket with
    | None -> None
    | Some path -> (
      try Some (Fsam_serve.Protocol.start_stats_socket srv path)
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "error: cannot bind stats socket %s: %s\n" path
          (Unix.error_message e);
        exit 1)
  in
  Fun.protect
    ~finally:(fun () ->
      (match scraper with
      | Some s -> Fsam_serve.Protocol.close_stats_socket s
      | None -> ());
      Fsam_serve.Stats.close stats)
    (fun () ->
      match (batch, socket) with
      | Some _, Some _ ->
        Printf.eprintf "error: --batch and --socket are mutually exclusive\n";
        exit 1
      | Some file, None -> Fsam_serve.Protocol.serve_batch srv file
      | None, Some path -> Fsam_serve.Protocol.serve_socket srv path
      | None, None -> Fsam_serve.Protocol.serve_stdio srv)

let serve_cmd =
  let program =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"PROGRAM"
             ~doc:"MiniC source file to load before serving (optional; clients \
                   can also send a $(b,load) request).")
  in
  let differential =
    Arg.(value & flag
         & info [ "differential" ]
             ~doc:"Cross-check every incremental edit against a cold re-run: \
                   replies carry $(b,identical) and $(b,cold_propagations).")
  in
  let batch =
    Arg.(value & opt (some string) None
         & info [ "batch" ] ~docv:"FILE"
             ~doc:"Read NDJSON requests from FILE instead of stdin, write \
                   replies to stdout, then exit.")
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix-domain socket instead of stdin/stdout.")
  in
  let crash_telemetry =
    Arg.(value & opt (some string) None
         & info [ "crash-telemetry" ] ~docv:"FILE"
             ~doc:"Arm a telemetry crash flush to FILE around each request.")
  in
  let slow_ms =
    Arg.(value & opt float 100.0
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Slow-query threshold: requests strictly over MS emit a \
                   structured NDJSON line (params and phase breakdown). \
                   Negative disables the log.")
  in
  let slow_log =
    Arg.(value & opt (some string) None
         & info [ "slow-log" ] ~docv:"FILE"
             ~doc:"Append slow-query lines to FILE instead of stderr.")
  in
  let flight =
    Arg.(value & opt int 256
         & info [ "flight" ] ~docv:"N"
             ~doc:"Flight-recorder capacity: journal the last N request \
                   summaries (dumped by the $(b,dump) op, SIGUSR1, and the \
                   crash flush). 0 disables the recorder.")
  in
  let stats_socket =
    Arg.(value & opt (some string) None
         & info [ "stats-socket" ] ~docv:"PATH"
             ~doc:"Serve a Prometheus text exposition on a dedicated \
                   Unix-domain socket (one scrape per connection), so \
                   scrapers never contend with query traffic.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Resident incremental-analysis daemon (NDJSON over stdin/stdout)"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Parses a MiniC program once, keeps the full analysis state \
              resident, and answers queries (points-to, alias, MHP, races, \
              explain) over a line-oriented JSON protocol. An $(b,edit) \
              request replacing one function re-analyses incrementally: the \
              pre-phases re-run cold, the sparse solve warm-starts from the \
              previous generation's clean slice — byte-identical results in \
              a fraction of the propagations. $(b,snapshot)/$(b,restore) \
              persist the resident state across daemon restarts. See \
              docs/GUIDE.md for the protocol reference.";
         ])
    Term.(
      const serve $ program $ differential $ provenance_arg $ batch
      $ socket $ crash_telemetry $ slow_ms $ slow_log $ flight $ stats_socket)

(* -- top ----------------------------------------------------------------------- *)

let top socket interval count json =
  let module J = Fsam_obs.Json in
  let poll () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_UNIX socket);
        let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
        output_string oc
          "{\"id\":\"top\",\"op\":\"status\"}\n{\"id\":\"top\",\"op\":\"stats\"}\n";
        flush oc;
        let status_line = input_line ic in
        let stats_line = input_line ic in
        let parse what line =
          match J.of_string line with
          | Ok j -> j
          | Error e ->
            Printf.eprintf "error: bad %s reply: %s\n" what e;
            exit 1
        in
        (parse "status" status_line, parse "stats" stats_line))
  in
  let prev = ref None in
  let rec loop remaining =
    if remaining <> Some 0 then begin
      (match poll () with
      | status, stats ->
        let doc =
          Fsam_serve.Topview.doc_of ~now:(Unix.gettimeofday ()) ?prev:!prev ~status
            ~stats ()
        in
        prev := Some (Fsam_serve.Topview.prev_of doc);
        if json then print_endline (J.to_string ~minify:true doc)
        else begin
          (* clear screen + home, like top(1) *)
          print_string "\027[2J\027[H";
          print_string (Fsam_serve.Topview.render doc)
        end;
        flush stdout
      | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "error: cannot poll %s: %s\n" socket (Unix.error_message e);
        exit 1
      | exception End_of_file ->
        Printf.eprintf "error: daemon closed the connection mid-poll\n";
        exit 1);
      let remaining = Option.map (fun n -> n - 1) remaining in
      if remaining <> Some 0 then Unix.sleepf interval;
      loop remaining
    end
  in
  loop (if count = 0 then None else Some count)

let top_cmd =
  let socket =
    Arg.(required & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket of the running daemon (its --socket).")
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh interval.")
  in
  let count =
    Arg.(value & opt int 0
         & info [ "count" ] ~docv:"N"
             ~doc:"Render N samples then exit (0 = run until interrupted).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print one minified fsam.top/1 JSON document per sample \
                   instead of the dashboard.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live dashboard over a running fsam serve daemon"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Polls a running daemon's $(b,status) and $(b,stats) ops over \
              its Unix socket (a fresh connection per sample, so queries \
              are never blocked) and renders request rates, per-op latency \
              quantiles, warm/cold fallback reasons, last-edit phase walls \
              and GC pressure. With $(b,--json), emits one fsam.top/1 \
              document per sample for scripting.";
         ])
    Term.(const top $ socket $ interval $ count $ json)

(* -- list ---------------------------------------------------------------------- *)

let list_benchmarks () =
  List.iter
    (fun (s : Fsam_workloads.Suite.spec) ->
      let prog = s.build s.scale in
      let stmts, funcs, forks, joins, locks = Fsam_workloads.Suite.program_stats prog in
      Format.printf "%-14s %-45s stmts=%-6d funcs=%-4d forks=%d joins=%d locks=%d@." s.name
        s.description stmts funcs forks joins locks)
    Fsam_workloads.Suite.all

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List the built-in benchmark programs")
    Term.(const list_benchmarks $ const ())

let () =
  let info =
    Cmd.info "fsam" ~version:"1.0.0"
      ~doc:"Sparse flow-sensitive pointer analysis for multithreaded programs (CGO'16)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            analyze_cmd;
            races_cmd;
            explain_cmd;
            deadlocks_cmd;
            leaks_cmd;
            instrument_cmd;
            report_cmd;
            profile_cmd;
            dump_ir_cmd;
            dot_cmd;
            interp_cmd;
            serve_cmd;
            top_cmd;
            list_cmd;
          ]))
