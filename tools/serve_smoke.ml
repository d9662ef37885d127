(* End-to-end smoke test of [fsam serve], used by CI: drives a real daemon
   subprocess over its NDJSON protocol through the full lifecycle — load the
   paper-scale synth workload, query, apply warm edits, snapshot, restart,
   restore, re-query — and gates on the incremental contract:

   - a shape-preserving single-statement edit must reuse every pre-phase
     (warm Andersen, verbatim thread model / MHP / locks, patched SVFG),
     be byte-identical to a cold run, cut total pre-phase work (Andersen
     propagations + MHP summaries + THREAD-VF pair candidates) >= 5x and
     solver propagations >= 5x vs that cold run;
   - a shape-changing (append) edit must still answer identically, falling
     back per phase with counted reasons;
   - an asynchronous edit must leave the previous generation answering
     queries mid-flight, with mutating ops refused;
   - a restored daemon must warm-patch subsequent edits from its freshly
     rebuilt structures.

   Prints the warm-vs-cold latency table quoted in EXPERIMENTS.md and gates
   end-to-end warm-edit wall vs cold load with [--speedup-floor] (default
   1.0 — wall on a loaded 1-core CI container is noisy; the work gates are
   exact). Exit status 0 iff every check passes.

   FSAM_BIN overrides the daemon binary (default: the dune build output). *)

module J = Fsam_obs.Json
module Ast = Fsam_frontend.Ast

let bin =
  match Sys.getenv_opt "FSAM_BIN" with
  | Some b -> b
  | None -> "_build/default/bin/fsam_cli.exe"

let speedup_floor =
  let f = ref 1.0 in
  let rec scan = function
    | "--speedup-floor" :: v :: rest ->
      (match float_of_string_opt v with
      | Some x -> f := x
      | None -> failwith "bad --speedup-floor");
      scan rest
    | _ :: rest -> scan rest
    | [] -> ()
  in
  scan (Array.to_list Sys.argv);
  !f

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok    %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL  %s\n%!" name
  end

type daemon = { ic : in_channel; oc : out_channel; mutable last_seq : int }

let start args =
  let argv = Array.of_list (bin :: "serve" :: args) in
  let ic, oc = Unix.open_process_args bin argv in
  { ic; oc; last_seq = 0 }

let stop d = ignore (Unix.close_process (d.ic, d.oc))

(* every reply — including error replies — must echo a strictly increasing
   request id; violations are tallied and gated once at the end *)
let seq_violations = ref 0

let request d obj =
  output_string d.oc (J.to_string ~minify:true (J.Obj obj));
  output_char d.oc '\n';
  flush d.oc;
  match input_line d.ic with
  | line -> (
    match J.of_string line with
    | Ok reply ->
      (match J.member "seq" reply with
      | Some (J.Int s) when s > d.last_seq -> d.last_seq <- s
      | _ -> incr seq_violations);
      reply
    | Error e -> failwith (Printf.sprintf "unparsable reply %S: %s" line e))
  | exception End_of_file -> failwith "daemon closed the connection"

let is_ok reply = J.member "ok" reply = Some (J.Bool true)
let int_field reply name = match J.member name reply with Some (J.Int i) -> Some i | _ -> None
let us_of reply = Option.value ~default:0 (int_field reply "us")
let str_field reply name =
  match J.member name reply with Some (J.String s) -> Some s | _ -> None

let bool_at reply path =
  let rec walk j = function
    | [] -> ( match j with J.Bool b -> Some b | _ -> None)
    | k :: rest -> ( match J.member k j with Some j' -> walk j' rest | None -> None)
  in
  walk reply path

let int_at reply path =
  let rec walk j = function
    | [] -> ( match j with J.Int i -> Some i | _ -> None)
    | k :: rest -> ( match J.member k j with Some j' -> walk j' rest | None -> None)
  in
  walk reply path

(* combined pre-phase work of a run, from a "work"/"cold_work" object *)
let pre_work reply key =
  match J.member key reply with
  | Some w ->
    let g n = Option.value ~default:0 (int_at w [ n ]) in
    Some (g "andersen_propagations" + g "mhp_summaries" + g "svfg_pairs")
  | None -> None

let error_code reply = str_field (Option.value ~default:J.Null (J.member "error" reply)) "code"

(* the shape-preserving edit: in [fn], retarget the first "g... = p..."
   global publish to the module heap handle instead. Same statement
   template, so the lowered program keeps identical statement gids and
   CFGs and every pre-phase reuse guard holds — only the points-to flow
   through that one store changes. *)
let replace_edit source ~fn =
  let ast = Fsam_frontend.Parser.parse_string source in
  let found = ref false in
  let fix_stmt s =
    match s with
    | Ast.Sassign (Ast.Eid g, Ast.Eid p)
      when (not !found)
           && String.length g > 0
           && g.[0] = 'g'
           && String.length p > 0
           && p.[0] = 'p' ->
      found := true;
      Ast.Sassign (Ast.Eid g, Ast.Eid "bh")
    | s -> s
  in
  let ast' =
    List.map
      (function
        | Ast.Dfun f when f.Ast.fname = fn ->
          Ast.Dfun { f with Ast.body = List.map fix_stmt f.Ast.body }
        | d -> d)
      ast
  in
  if not !found then failwith (Printf.sprintf "no global publish to retarget in %s" fn);
  Fsam_frontend.Pretty.to_string ast'

(* same edit, as a single-function replacement fragment for the protocol's
   "fn" + "code" form (the daemon re-parses just the fragment) *)
let replace_edit_fn source ~fn =
  let edited = replace_edit source ~fn in
  let ast = Fsam_frontend.Parser.parse_string edited in
  match List.find_opt (function Ast.Dfun f -> f.Ast.fname = fn | _ -> false) ast with
  | Some d -> (edited, Fsam_frontend.Pretty.to_string [ d ])
  | None -> failwith (Printf.sprintf "no %s in synth source" fn)

(* the shape-changing edit: append one genuine statement (a global publish
   of the local heap handle); stmt counts drift, so the pre-phases must
   fall back while the sparse solve stays warm *)
let append_edit source ~fn =
  let ast = Fsam_frontend.Parser.parse_string source in
  let found = ref false in
  let ast' =
    List.map
      (function
        | Ast.Dfun f when f.Ast.fname = fn ->
          found := true;
          Ast.Dfun { f with Ast.body = f.Ast.body @ [ Ast.Sassign (Ast.Eid "g1_0", Ast.Eid "bh") ] }
        | d -> d)
      ast
  in
  if not !found then failwith (Printf.sprintf "no %s in synth source" fn);
  Fsam_frontend.Pretty.to_string ast'

(* Strict checker for the Prometheus text subset the daemon emits: TYPE
   comments, plain [name value] samples, histogram buckets with an [le]
   label; names [a-zA-Z_:][a-zA-Z0-9_:]*; buckets cumulative with a +Inf
   bucket equal to _count and a _sum sample. Returns violations. *)
let check_prometheus text =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let name_ok s =
    s <> ""
    && (let c = s.[0] in (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':')
    && String.for_all
         (fun c ->
           (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
           || c = '_' || c = ':')
         s
  in
  let buckets = Hashtbl.create 16 and samples = Hashtbl.create 16 in
  let typed = Hashtbl.create 16 in
  List.iter
    (fun line ->
      if line = "" then ()
      else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | [ _; _; name; kind ] ->
          if not (name_ok name) then err "bad TYPE name %S" name;
          if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
            err "bad TYPE kind %S" kind;
          Hashtbl.replace typed name kind
        | _ -> err "malformed TYPE line %S" line
      end
      else if line.[0] = '#' then ()
      else
        match String.index_opt line ' ' with
        | None -> err "sample without value: %S" line
        | Some sp -> (
          let lhs = String.sub line 0 sp in
          let value = String.sub line (sp + 1) (String.length line - sp - 1) in
          let v =
            match float_of_string_opt value with
            | Some v -> v
            | None ->
              err "non-numeric value %S in %S" value line;
              nan
          in
          match String.index_opt lhs '{' with
          | None ->
            if not (name_ok lhs) then err "bad sample name %S" lhs;
            Hashtbl.replace samples lhs v
          | Some lb -> (
            let name = String.sub lhs 0 lb in
            let labels = String.sub lhs lb (String.length lhs - lb) in
            if not (name_ok name) then err "bad sample name %S" name;
            if
              not
                (String.length name > 7
                && String.sub name (String.length name - 7) 7 = "_bucket")
            then err "labels on non-bucket sample %S" lhs
            else
              let base = String.sub name 0 (String.length name - 7) in
              match
                if
                  String.length labels > 6
                  && String.sub labels 0 5 = "{le=\""
                  && labels.[String.length labels - 2] = '"'
                  && labels.[String.length labels - 1] = '}'
                then Some (String.sub labels 5 (String.length labels - 7))
                else None
              with
              | None -> err "bucket without le label: %S" lhs
              | Some le ->
                let prev = try Hashtbl.find buckets base with Not_found -> [] in
                Hashtbl.replace buckets base (prev @ [ (le, v) ]))))
    (String.split_on_char '\n' text);
  Hashtbl.iter
    (fun base bs ->
      (match Hashtbl.find_opt typed base with
      | Some "histogram" -> ()
      | _ -> err "histogram %s has buckets but no histogram TYPE" base);
      let cum = List.map snd bs in
      if not (List.for_all2 (fun a b -> a <= b) cum (List.tl cum @ [ infinity ])) then
        err "%s buckets not cumulative" base;
      (match List.rev bs with
      | ("+Inf", v) :: _ -> (
        match Hashtbl.find_opt samples (base ^ "_count") with
        | Some c when c = v -> ()
        | Some c -> err "%s +Inf bucket %f <> count %f" base v c
        | None -> err "%s missing _count" base)
      | _ -> err "%s last bucket is not +Inf" base);
      if Hashtbl.find_opt samples (base ^ "_sum") = None then err "%s missing _sum" base)
    buckets;
  List.rev !errs

(* the value of a plain [name value] sample in an exposition, if present *)
let sample_value text name =
  List.find_map
    (fun line ->
      match String.index_opt line ' ' with
      | Some sp when String.sub line 0 sp = name ->
        float_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1))
      | _ -> None)
    (String.split_on_char '\n' text)

(* byte-identity of the named analysis fields between two replies *)
let fields_identical names a b =
  List.for_all (fun n -> J.equal (Option.value ~default:J.Null (J.member n a))
                           (Option.value ~default:J.Null (J.member n b))) names

let all_phases_reused reply =
  List.for_all
    (fun k -> bool_at reply [ "phases"; k ] = Some true)
    [ "andersen_warm"; "tm_reused"; "mhp_reused"; "locks_reused"; "svfg_patched" ]

let () =
  let snap = Filename.temp_file "fsam_smoke" ".snap" in
  let slowlog = Filename.temp_file "fsam_smoke" ".slow" in
  let source = Fsam_workloads.Minic_synth.generate Fsam_workloads.Minic_synth.quick in

  (* -- daemon #1: load, query, warm edits (differential), snapshot ---------
     --slow-ms 0 makes every request an "injected slow query": the slow log
     must fill with fsam.slow/1 lines. *)
  let d1 = start [ "--differential"; "--slow-ms"; "0"; "--slow-log"; slowlog ] in
  let r = request d1 [ ("id", J.Int 1); ("op", J.String "load"); ("source", J.String source) ] in
  check "load synth quick" (is_ok r);
  let load_us = us_of r in
  let cold_pre_work = pre_work r "work" in

  let r = request d1 [ ("id", J.Int 2); ("op", J.String "points-to"); ("var", J.String "out") ] in
  check "points-to query" (is_ok r);
  let query_us = us_of r in

  (* shape-preserving edit: every pre-phase must go warm *)
  let edited = replace_edit source ~fn:"f1_1" in
  let r = request d1 [ ("id", J.Int 3); ("op", J.String "edit"); ("source", J.String edited) ] in
  check "replace-edit request ok" (is_ok r);
  let edit_us = us_of r in
  check "replace-edit ran incrementally" (str_field r "mode" = Some "incremental");
  check "replace-edit identical to cold re-run" (J.member "identical" r = Some (J.Bool true));
  check "replace-edit reused every pre-phase" (all_phases_reused r);
  let warm_prop = Option.value ~default:max_int (int_field r "propagations") in
  let cold_prop = Option.value ~default:0 (int_field r "cold_propagations") in
  Printf.printf "      propagations: warm %d vs cold %d (%.1fx)\n%!" warm_prop cold_prop
    (float_of_int cold_prop /. float_of_int (max 1 warm_prop));
  check "replace-edit >= 5x fewer propagations" (warm_prop * 5 <= cold_prop);
  let warm_pre = Option.value ~default:max_int (pre_work r "work") in
  let cold_pre = Option.value ~default:0 (pre_work r "cold_work") in
  Printf.printf "      pre-phase work: warm %d vs cold %d (%.1fx)\n%!" warm_pre cold_pre
    (float_of_int cold_pre /. float_of_int (max 1 warm_pre));
  check "replace-edit >= 5x less pre-phase work" (warm_pre * 5 <= cold_pre);

  (* shape-changing edit: pre-phases fall back (counted), answers stay
     identical, sparse solve still warm *)
  let edited2 = append_edit edited ~fn:"f2_1" in
  let r = request d1 [ ("id", J.Int 4); ("op", J.String "edit"); ("source", J.String edited2) ] in
  check "append-edit request ok" (is_ok r);
  check "append-edit ran incrementally" (str_field r "mode" = Some "incremental");
  check "append-edit identical to cold re-run" (J.member "identical" r = Some (J.Bool true));
  check "append-edit fell back per phase"
    (match J.member "fallbacks" r with Some (J.List (_ :: _)) -> true | _ -> false);

  let r = request d1 [ ("id", J.Int 5); ("op", J.String "status") ] in
  check "status counts cold fallbacks"
    (is_ok r && match int_field r "serve.fallback_cold" with Some n -> n > 0 | None -> false);

  let r = request d1 [ ("id", J.Int 6); ("op", J.String "races") ] in
  check "races after edits" (is_ok r);
  let races_us = us_of r in

  (* asynchronous edit: queries answer from the pinned generation
     mid-flight; mutating ops are refused until edit-wait *)
  let edited3 = replace_edit edited2 ~fn:"f0_2" in
  let r =
    request d1
      [
        ("id", J.Int 7);
        ("op", J.String "edit");
        ("source", J.String edited3);
        ("async", J.Bool true);
      ]
  in
  check "async edit started" (is_ok r && J.member "started" r = Some (J.Bool true));
  let r = request d1 [ ("id", J.Int 8); ("op", J.String "points-to"); ("var", J.String "out") ] in
  check "query answered mid-edit from pinned generation" (is_ok r);
  let r = request d1 [ ("id", J.Int 9); ("op", J.String "status") ] in
  check "status mid-edit reports busy" (is_ok r && J.member "busy" r = Some (J.Bool true));
  let r = request d1 [ ("id", J.Int 10); ("op", J.String "metrics") ] in
  check "metrics refused mid-edit" (error_code r = Some "edit_in_flight");
  (* the stats op stays available mid-edit (serve registry only) and the
     scrape must already be well-formed exposition text *)
  let r = request d1 [ ("id", J.Int 10); ("op", J.String "stats") ] in
  check "stats op answers mid-edit" (is_ok r);
  (match str_field r "prometheus" with
  | Some text ->
    let errs = check_prometheus text in
    List.iter (fun e -> Printf.printf "      prometheus: %s\n%!" e) errs;
    check "mid-edit scrape passes strict format check" (errs = [])
  | None -> check "mid-edit scrape passes strict format check" false);
  let r = request d1 [ ("id", J.Int 11); ("op", J.String "edit-wait") ] in
  check "edit-wait completes the async edit"
    (is_ok r && str_field r "mode" = Some "incremental"
    && J.member "identical" r = Some (J.Bool true));

  (* the async edit replaced the generation: re-read the race report that
     the snapshot below must preserve *)
  let r = request d1 [ ("id", J.Int 12); ("op", J.String "races") ] in
  check "races after async edit" (is_ok r);
  let races_after_edit = int_field r "count" in

  (* idle stats scrape: per-op latency histograms populated, process gauges
     present, strict format still clean *)
  let r = request d1 [ ("id", J.Int 12); ("op", J.String "stats") ] in
  check "stats op after edits" (is_ok r);
  (match str_field r "prometheus" with
  | Some text ->
    let errs = check_prometheus text in
    List.iter (fun e -> Printf.printf "      prometheus: %s\n%!" e) errs;
    check "idle scrape passes strict format check" (errs = []);
    check "per-op latency histograms populated"
      (match sample_value text "serve_req_points_to_latency_us_count" with
      | Some c -> c >= 2.0
      | None -> false);
    check "process gauges exported"
      ((match sample_value text "serve_pid" with Some p -> p > 0.0 | None -> false)
      && (match sample_value text "serve_rss_kb" with Some r -> r > 0.0 | None -> false)
      && sample_value text "serve_uptime_s" <> None);
    check "requests counter matches traffic"
      (match sample_value text "serve_requests_total" with
      | Some c -> c >= 12.0
      | None -> false)
  | None -> check "idle scrape passes strict format check" false);

  (* flight recorder: the dump op journals the tail of everything above;
     persist it as the CI artifact *)
  let r = request d1 [ ("id", J.Int 12); ("op", J.String "dump") ] in
  check "dump op returns flight journal"
    (is_ok r
    &&
    match J.member "flight" r with
    | Some fj -> (
      match (J.member "entries" fj, J.member "recorded" fj) with
      | Some (J.List (_ :: _ as es)), Some (J.Int n) ->
        n >= List.length es
        &&
        (* entries oldest-first with strictly increasing request ids *)
        let seqs =
          List.filter_map
            (fun e -> match J.member "seq" e with Some (J.Int s) -> Some s | _ -> None)
            es
        in
        List.length seqs = List.length es
        && List.for_all2 ( < ) (0 :: seqs) (seqs @ [ max_int ])
      | _ -> false)
    | None -> false);
  let artifact =
    Option.value ~default:"serve_smoke_flight.json" (Sys.getenv_opt "FSAM_FLIGHT_ARTIFACT")
  in
  (let oc = open_out artifact in
   output_string oc (J.to_string (Option.value ~default:J.Null (J.member "flight" r)));
   output_char oc '\n';
   close_out oc);
  Printf.printf "      flight journal written to %s\n%!" artifact;

  let r = request d1 [ ("id", J.Int 12); ("op", J.String "snapshot"); ("path", J.String snap) ] in
  check "snapshot saved" (is_ok r);
  let r = request d1 [ ("id", J.Int 13); ("op", J.String "shutdown") ] in
  check "daemon 1 shutdown" (is_ok r);
  stop d1;

  (* the injected slow queries must have produced parseable fsam.slow/1
     NDJSON lines *)
  let slow_lines =
    let ic = open_in slowlog in
    let rec go acc = match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file -> close_in ic; List.rev acc
    in
    go []
  in
  check "slow log emitted under injected slow queries" (List.length slow_lines > 0);
  check "slow log lines are fsam.slow/1 documents"
    (slow_lines <> []
    && List.for_all
         (fun l ->
           match J.of_string l with
           | Ok doc ->
             J.member "schema" doc = Some (J.String "fsam.slow/1")
             && J.member "op" doc <> None
             && (match J.member "us" doc with Some (J.Int u) -> u > 0 | _ -> false)
           | Error _ -> false)
         slow_lines);
  Sys.remove slowlog;

  (* -- daemon #2: restart cold, restore the snapshot, re-query ------------- *)
  let d2 = start [] in
  let r = request d2 [ ("id", J.Int 14); ("op", J.String "races") ] in
  check "fresh daemon has no program" (J.member "ok" r = Some (J.Bool false));

  let r = request d2 [ ("id", J.Int 15); ("op", J.String "restore"); ("path", J.String snap) ] in
  check "restore from snapshot" (is_ok r);
  let restore_us = us_of r in

  let r = request d2 [ ("id", J.Int 16); ("op", J.String "races") ] in
  check "races identical across snapshot/restore"
    (is_ok r && int_field r "count" = races_after_edit);

  (* a warm edit on the restored state, without the differential
     cross-check: the honest warm-edit latency. The restore rebuilt every
     incremental index cold, so the pre-phases must again all go warm. *)
  let _edited4, frag = replace_edit_fn edited3 ~fn:"f2_2" in
  let r =
    request d2
      [
        ("id", J.Int 17);
        ("op", J.String "edit");
        ("fn", J.String "f2_2");
        ("code", J.String frag);
      ]
  in
  check "edit after restore is incremental" (is_ok r && str_field r "mode" = Some "incremental");
  check "edit after restore reused every pre-phase" (all_phases_reused r);
  let warm_edit_us = us_of r in
  let warm_phases =
    match J.member "phases" r with
    | Some p ->
      List.filter_map
        (fun k ->
          match J.member k p with
          | Some (J.Float s) -> Some (k, s)
          | _ -> None)
        [ "andersen_s"; "threads_s"; "mhp_s"; "locks_s"; "svfg_s"; "sparse_s" ]
    | None -> []
  in

  let r = request d2 [ ("id", J.Int 18); ("op", J.String "shutdown") ] in
  check "daemon 2 shutdown" (is_ok r);
  stop d2;
  Sys.remove snap;

  (* -- observability on/off byte-identity ------------------------------------
     the full telemetry stack (flight recorder + slow log on every request)
     must not perturb a single analysis result *)
  let slowtmp = Filename.temp_file "fsam_smoke" ".slow2" in
  let d_on = start [ "--slow-ms"; "0"; "--slow-log"; slowtmp ] in
  let d_off = start [ "--flight"; "0"; "--slow-ms=-1" ] in
  let both obj = (request d_on obj, request d_off obj) in
  let step name fields obj =
    let a, b = both obj in
    check ("obs on/off identical: " ^ name) (is_ok a && is_ok b && fields_identical fields a b)
  in
  step "load" [ "svfg_digest"; "propagations"; "races"; "funcs"; "stmts" ]
    [ ("id", J.Int 1); ("op", J.String "load"); ("source", J.String source) ];
  step "points-to" [ "var"; "var_id"; "objects" ]
    [ ("id", J.Int 2); ("op", J.String "points-to"); ("var", J.String "out") ];
  step "races" [ "count"; "races" ] [ ("id", J.Int 3); ("op", J.String "races") ];
  step "warm edit" [ "mode"; "propagations" ]
    [ ("id", J.Int 4); ("op", J.String "edit");
      ("source", J.String (replace_edit source ~fn:"f1_1")) ];
  step "points-to after edit" [ "var"; "var_id"; "objects" ]
    [ ("id", J.Int 5); ("op", J.String "points-to"); ("var", J.String "out") ];
  step "races after edit" [ "count"; "races" ] [ ("id", J.Int 6); ("op", J.String "races") ];
  ignore (both [ ("id", J.Int 7); ("op", J.String "shutdown") ]);
  stop d_on;
  stop d_off;
  (try Sys.remove slowtmp with Sys_error _ -> ());

  check "seq echoed strictly increasing on every reply" (!seq_violations = 0);

  let speedup = float_of_int load_us /. float_of_int (max 1 warm_edit_us) in
  Printf.printf "\nwarm-vs-cold latency (synth quick, single-function edit):\n";
  Printf.printf "  %-34s %10s\n" "operation" "wall";
  Printf.printf "  %-34s %7.1f ms\n" "cold load (parse + full pipeline)"
    (float_of_int load_us /. 1000.);
  Printf.printf "  %-34s %7.1f ms\n" "warm edit (all pre-phases warm)"
    (float_of_int warm_edit_us /. 1000.);
  Printf.printf "  %-34s %7.1f ms\n" "edit w/ differential cross-check"
    (float_of_int edit_us /. 1000.);
  Printf.printf "  %-34s %7.1f ms\n" "restore (load snapshot + verify)"
    (float_of_int restore_us /. 1000.);
  Printf.printf "  %-34s %7.1f ms\n" "resident points-to query"
    (float_of_int query_us /. 1000.);
  Printf.printf "  %-34s %7.1f ms\n" "resident race scan" (float_of_int races_us /. 1000.);
  if warm_phases <> [] then begin
    Printf.printf "  warm-edit phase walls:";
    List.iter (fun (k, s) -> Printf.printf " %s %.1fms" k (s *. 1000.)) warm_phases;
    print_newline ()
  end;
  Printf.printf "  propagations: warm %d, cold %d\n" warm_prop cold_prop;
  Printf.printf "  pre-phase work: warm %d, cold %d\n" warm_pre cold_pre;
  (match cold_pre_work with
  | Some w -> Printf.printf "  cold-load pre-phase work: %d\n" w
  | None -> ());
  Printf.printf "  warm-edit speedup vs cold load: %.1fx (floor %.1fx)\n" speedup speedup_floor;
  check "warm edit meets --speedup-floor" (speedup >= speedup_floor);
  if !failures > 0 then begin
    Printf.printf "\n%d check(s) FAILED\n" !failures;
    exit 1
  end;
  Printf.printf "\nall serve smoke checks passed\n"
