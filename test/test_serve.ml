(* The serve layer: incremental edits must be byte-identical to cold runs
   (differential property over random programs and random single-function
   edits), snapshots must round-trip, the NDJSON
   protocol must answer and fail structurally, and the telemetry crash-flush
   arming around requests must be idempotent and disarmed between requests. *)

open Fsam_ir
module D = Fsam_core.Driver
module Sparse = Fsam_core.Sparse
module Races = Fsam_core.Races
module Svfg = Fsam_memssa.Svfg
module Iset = Fsam_dsa.Iset
module J = Fsam_obs.Json
module Ast = Fsam_frontend.Ast
module Engine = Fsam_serve.Engine
module Protocol = Fsam_serve.Protocol

(* -- random single-function AST edits ------------------------------------- *)

(* deterministic mutations: duplicate / drop / swap a statement inside one
   function, or append a self-assignment. Some mutations won't lower
   (dropped declarations); the caller skips those. *)
let mutate ~k source =
  let ast = Fsam_frontend.Parser.parse_string source in
  let fns = List.filter_map (function Ast.Dfun f -> Some f.Ast.fname | _ -> None) ast in
  let fn = List.nth fns (k mod List.length fns) in
  let tweak (f : Ast.fundef) =
    let body = Array.of_list f.Ast.body in
    let n = Array.length body in
    if n = 0 then f
    else begin
      let i = (k * 7) mod n in
      let body =
        match (k / 3) mod 4 with
        | 0 -> Array.to_list body @ [ body.(i) ] (* duplicate at the end *)
        | 1 -> List.filteri (fun j _ -> j <> i) (Array.to_list body) (* drop *)
        | 2 when n >= 2 ->
          let j = (i + 1) mod n in
          let t = body.(i) in
          body.(i) <- body.(j);
          body.(j) <- t;
          Array.to_list body (* swap *)
        | _ -> body.(i) :: Array.to_list body (* duplicate at the front *)
      in
      { f with Ast.body = body }
    end
  in
  let ast' =
    List.map
      (function Ast.Dfun f when f.Ast.fname = fn -> Ast.Dfun (tweak f) | d -> d)
      ast
  in
  Fsam_frontend.Pretty.to_string ast'

(* The resident generation's race report (read off the possibly patched
   SVFG's pair rows) against the all-pairs scan. *)
let check_races_oracle what eng =
  let d = Engine.driver eng in
  if Races.detect d <> Oracle.Race_oracle.detect d then
    Alcotest.failf "%s: race report differs from the all-pairs oracle" what

(* Random programs, random edits, differential mode on: every edit that runs
   incrementally must be certified identical to the cold re-run. *)
let test_edit_differential () =
  let incremental = ref 0 and cold = ref 0 and skipped = ref 0 in
  for seed = 0 to 17 do
    let source =
      Fsam_workloads.Rand_minic.generate ~seed ~size:(20 + ((seed mod 3) * 15))
    in
    let eng = Engine.create ~differential:true () in
    (match Engine.load eng source with
    | Error e -> Alcotest.failf "seed %d: load failed: %s" seed e
    | Ok _ ->
      for k = 0 to 3 do
        let edited = mutate ~k:((seed * 5) + k) source in
        match Engine.edit_source eng edited with
        | Error _ -> incr skipped (* mutation didn't lower; fine *)
        | Ok info -> (
          check_races_oracle (Printf.sprintf "seed %d edit %d" seed k) eng;
          match info.Engine.e_mode with
          | `Cold -> incr cold
          | `Incremental ->
            incr incremental;
            if info.Engine.e_identical <> Some true then
              Alcotest.failf
                "seed %d edit %d: incremental result differs from cold re-run" seed k)
      done)
  done;
  (* the property is vacuous if nothing ever runs incrementally *)
  if !incremental < 10 then
    Alcotest.failf "only %d incremental edits across the sweep (%d cold, %d skipped)"
      !incremental !cold !skipped

(* -- staged warm-edit sequence: per-phase reuse and invalidation ----------- *)

(* One multithreaded program, three staged edits that exercise each guard of
   the incremental pre-phases: a shape-preserving pointer retarget (every
   phase must reuse), a fork-target edit (must invalidate the thread model
   and MHP), and a lock-operand edit (must invalidate the lock spans but
   keep the thread model). Every edit stays differential-certified. The
   unlocked stores through [gp] race with main's [*q = 8] on whichever of
   g1/g2 [q] targets, so the retarget stage moves a race between the
   patched SVFG's pair rows. *)
let mt_source ~target ~lock_var ~global =
  Printf.sprintf
    "int g1;\n\
     int g2;\n\
     int shared;\n\
     int *gp;\n\
     lock_t m1;\n\
     lock_t m2;\n\
     void worker_a(int *p) {\n\
    \  int *r;\n\
    \  lock(&m1);\n\
    \  *p = 1;\n\
    \  unlock(&m1);\n\
    \  r = gp;\n\
    \  *r = 4;\n\
     }\n\
     void worker_b(int *p) {\n\
    \  int *r;\n\
    \  lock(&m2);\n\
    \  *p = 2;\n\
    \  unlock(&m2);\n\
    \  r = gp;\n\
    \  *r = 5;\n\
     }\n\
     int main() {\n\
    \  int *q;\n\
    \  int *s;\n\
    \  q = &%s;\n\
    \  s = &shared;\n\
    \  gp = q;\n\
    \  *q = 7;\n\
    \  fork(null, %s, s);\n\
    \  lock(&%s);\n\
    \  *s = 3;\n\
    \  unlock(&%s);\n\
    \  *q = 8;\n\
    \  return 0;\n\
     }\n"
    global target lock_var lock_var

let mt_stages =
  [
    (* retarget a points-to edge; identical statement shape *)
    ("retarget", mt_source ~target:"worker_a" ~lock_var:"m1" ~global:"g2");
    (* move the fork to the other worker: a sync-statement edit *)
    ("fork-site", mt_source ~target:"worker_b" ~lock_var:"m1" ~global:"g2");
    (* guard the main-thread store with the other mutex *)
    ("lock", mt_source ~target:"worker_b" ~lock_var:"m2" ~global:"g2");
  ]

let phases_exn ~stage (info : Engine.edit_info) =
  match info.Engine.e_phases with
  | Some p -> p
  | None -> Alcotest.failf "%s: edit ran fully cold (no phase summary)" stage

let test_edit_sequence_phases () =
  let eng = Engine.create ~differential:true () in
  (match Engine.load eng (mt_source ~target:"worker_a" ~lock_var:"m1" ~global:"g1") with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok _ -> ());
  let apply (stage, src) =
    match Engine.edit_source eng src with
    | Error e -> Alcotest.failf "%s: edit failed: %s" stage e
    | Ok info ->
      if info.Engine.e_mode <> `Incremental then
        Alcotest.failf "%s: expected an incremental edit" stage;
      Alcotest.(check (option bool))
        (stage ^ ": certified identical to cold")
        (Some true) info.Engine.e_identical;
      check_races_oracle stage eng;
      if Races.detect (Engine.driver eng) = [] then Alcotest.failf "%s: no races" stage;
      (stage, info)
  in
  (match apply (List.nth mt_stages 0) with
  | stage, info ->
    let p = phases_exn ~stage info in
    Alcotest.(check (list string)) (stage ^ ": no fallbacks") [] info.Engine.e_fallbacks;
    Alcotest.(check bool)
      (stage ^ ": every pre-phase reused")
      true
      (p.Engine.ph_andersen_warm && p.Engine.ph_tm_reused && p.Engine.ph_mhp_reused
     && p.Engine.ph_locks_reused && p.Engine.ph_svfg_patched));
  (match apply (List.nth mt_stages 1) with
  | stage, info ->
    let p = phases_exn ~stage info in
    Alcotest.(check bool) (stage ^ ": thread model invalidated") false p.Engine.ph_tm_reused;
    Alcotest.(check bool) (stage ^ ": MHP invalidated") false p.Engine.ph_mhp_reused;
    Alcotest.(check bool)
      (stage ^ ": a tm_* fallback was counted")
      true
      (List.exists
         (fun k -> String.length k >= 3 && String.sub k 0 3 = "tm_")
         info.Engine.e_fallbacks));
  match apply (List.nth mt_stages 2) with
  | stage, info ->
    let p = phases_exn ~stage info in
    Alcotest.(check bool) (stage ^ ": thread model still reused") true p.Engine.ph_tm_reused;
    Alcotest.(check bool) (stage ^ ": MHP still reused") true p.Engine.ph_mhp_reused;
    Alcotest.(check bool) (stage ^ ": lock spans invalidated") false p.Engine.ph_locks_reused;
    (* lowering materialises [&m2] into a temp, so depending on the shape
       the guard trips either on the lock statement itself or on its
       operand's points-to set; both keys mean the spans were invalidated *)
    Alcotest.(check bool)
      (stage ^ ": a locks_* fallback was counted")
      true
      (List.exists
         (fun k -> List.mem k [ "locks_edit"; "locks_operand_drift" ])
         info.Engine.e_fallbacks)

(* Patch promotion: [worker] is forked twice, so its first store [*p = &a]
   reaches the other instance's load only through a [THREAD-VF] edge, the
   middle store killing it in the oblivious chains. Pointing the middle
   store at another object keeps every statement shape, so the SVFG is
   patched; the patched per-fn dataflow then re-derives that edge as
   oblivious, and it must be reclassified as a cold build would have it. *)
let promotion_source ~middle =
  Printf.sprintf
    "int a;\n\
     int b;\n\
     int o;\n\
     int other;\n\
     void worker(int *p) {\n\
    \  int *q;\n\
    \  int *x;\n\
    \  q = &other;\n\
    \  *p = &a;\n\
    \  *%s = &b;\n\
    \  x = *p;\n\
     }\n\
     int main() {\n\
    \  int *s;\n\
    \  s = &o;\n\
    \  fork(null, worker, s);\n\
    \  fork(null, worker, s);\n\
    \  return 0;\n\
     }\n"
    middle

let test_patch_promotion () =
  let eng = Engine.create ~differential:true () in
  (match Engine.load eng (promotion_source ~middle:"p") with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok _ -> ());
  match Engine.edit_source eng (promotion_source ~middle:"q") with
  | Error e -> Alcotest.failf "edit failed: %s" e
  | Ok info ->
    let p = phases_exn ~stage:"promotion" info in
    Alcotest.(check bool) "SVFG patched" true p.Engine.ph_svfg_patched;
    Alcotest.(check (option bool)) "certified identical to cold" (Some true)
      info.Engine.e_identical

(* Under --provenance every recording phase (Andersen, SVFG, sparse solve)
   refuses its warm start while the thread model, MHP and locks are still
   reused; after a load, a shape-preserving edit and a snapshot/restore,
   every why-pt chain of the resident generation must be fully recorded,
   replay, and equal the chain of a cold recording run of the same source. *)
let check_chains_cold stage eng =
  let d = Engine.driver eng in
  let cold =
    D.run
      ~config:{ D.default_config with D.provenance = true }
      (Fsam_frontend.Lower.compile_string (Engine.source eng))
  in
  let render d chain = J.to_string ~minify:true (Fsam_core.Explain.chain_json d chain) in
  let n = ref 0 in
  for v = 0 to Prog.n_vars d.D.prog - 1 do
    Iset.iter
      (fun o ->
        incr n;
        let what =
          Printf.sprintf "%s: pt(%s) ∋ %s" stage (Prog.var_name d.D.prog v)
            (Prog.obj_name d.D.prog o)
        in
        match (Fsam_core.Explain.why_pt d v o, Fsam_core.Explain.why_pt cold v o) with
        | Some chain, Some chain' ->
          if List.exists (fun st -> st.Fsam_core.Explain.tag = 0) chain then
            Alcotest.failf "%s: unrecorded link" what;
          if not (Fsam_core.Explain.replay d chain) then
            Alcotest.failf "%s: chain does not replay" what;
          Alcotest.(check string) (what ^ ": chain as cold") (render cold chain')
            (render d chain)
        | _ -> Alcotest.failf "%s: no chain" what)
      (Sparse.pt_top d.D.sparse v)
  done;
  if !n = 0 then Alcotest.failf "%s: no points-to facts" stage

let test_provenance_warm_chains () =
  let eng = Engine.create ~provenance:true () in
  (match Engine.load eng (mt_source ~target:"worker_a" ~lock_var:"m1" ~global:"g1") with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok _ -> ());
  check_chains_cold "load" eng;
  let stage, src = List.nth mt_stages 0 in
  (match Engine.edit_source eng src with
  | Error e -> Alcotest.failf "%s: edit failed: %s" stage e
  | Ok info ->
    check_chains_cold stage eng;
    Alcotest.(check bool)
      (stage ^ ": sparse warm start refused")
      true
      (List.mem "sparse_provenance" info.Engine.e_fallbacks);
    Alcotest.(check bool) (stage ^ ": thread model reused") true
      (phases_exn ~stage info).Engine.ph_tm_reused);
  let path = Filename.temp_file "fsam_test" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match Engine.snapshot eng path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "snapshot failed: %s" e);
      match Engine.restore eng path with
      | Error e -> Alcotest.failf "restore failed: %s" e
      | Ok _ -> check_chains_cold "restore" eng)

(* -- snapshot / restore ---------------------------------------------------- *)

let test_snapshot_roundtrip () =
  for seed = 0 to 5 do
    let source = Fsam_workloads.Rand_minic.generate ~seed ~size:50 in
    let eng = Engine.create () in
    (match Engine.load eng source with
    | Error e -> Alcotest.failf "seed %d: load failed: %s" seed e
    | Ok _ -> ());
    let path = Filename.temp_file "fsam_test" ".snap" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        (match Engine.snapshot eng path with
        | Ok () -> ()
        | Error e -> Alcotest.failf "seed %d: snapshot failed: %s" seed e);
        let eng2 = Engine.create () in
        match Engine.restore eng2 path with
        | Error e -> Alcotest.failf "seed %d: restore failed: %s" seed e
        | Ok _ ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: restored state identical" seed)
            true
            (Engine.same_results (Engine.driver eng) (Engine.driver eng2));
          Alcotest.(check string)
            (Printf.sprintf "seed %d: source survives" seed)
            (Engine.source eng) (Engine.source eng2))
  done

let test_snapshot_rejects_garbage () =
  let path = Filename.temp_file "fsam_test" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "definitely not a snapshot";
      close_out oc;
      let eng = Engine.create () in
      match Engine.restore eng path with
      | Ok _ -> Alcotest.fail "garbage accepted as a snapshot"
      | Error _ -> Alcotest.(check bool) "engine still empty" false (Engine.loaded eng))

(* -- protocol -------------------------------------------------------------- *)

let tiny_source =
  "int g;\nvoid writer(int *p) { *p = 1; }\nint main() { int *q; q = &g; writer(q); \
   *q = 2; return 0; }\n"

let req srv fields = Protocol.handle_line srv (J.to_string ~minify:true (J.Obj fields))
let is_ok r = J.member "ok" r = Some (J.Bool true)

let err_code r =
  match J.member "error" r with
  | Some e -> (match J.member "code" e with Some (J.String c) -> Some c | _ -> None)
  | None -> None

let test_protocol_basics () =
  let eng = Engine.create () in
  let srv = Protocol.create eng in
  let r = req srv [ ("id", J.Int 1); ("op", J.String "points-to"); ("var", J.String "q") ] in
  Alcotest.(check (option string)) "query before load" (Some "no_program") (err_code r);
  let r = req srv [ ("id", J.Int 2); ("op", J.String "load"); ("source", J.String tiny_source) ] in
  Alcotest.(check bool) "load ok" true (is_ok r);
  let r = req srv [ ("id", J.Int 3); ("op", J.String "points-to"); ("var", J.String "q") ] in
  Alcotest.(check bool) "points-to ok" true (is_ok r);
  (match J.member "objects" r with
  | Some (J.List [ o ]) ->
    Alcotest.(check bool) "points at g" true (J.member "name" o = Some (J.String "g"))
  | _ -> Alcotest.fail "expected exactly one points-to target");
  let r = req srv [ ("id", J.Int 4); ("op", J.String "frobnicate") ] in
  Alcotest.(check (option string)) "unknown op" (Some "unknown_op") (err_code r);
  let r = Protocol.handle_line srv "{nonsense" in
  Alcotest.(check (option string)) "bad json" (Some "bad_request") (err_code r);
  let r = req srv [ ("id", J.Int 5); ("op", J.String "load"); ("source", J.String "int main( {") ] in
  Alcotest.(check (option string)) "parse error" (Some "parse_error") (err_code r);
  let r =
    req srv
      [
        ("id", J.Int 6);
        ("op", J.String "batch");
        ( "requests",
          J.List
            [
              J.Obj [ ("id", J.Int 7); ("op", J.String "status") ];
              J.Obj [ ("id", J.Int 8); ("op", J.String "races") ];
            ] );
      ]
  in
  Alcotest.(check bool) "batch ok" true (is_ok r);
  (match J.member "replies" r with
  | Some (J.List [ a; b ]) ->
    Alcotest.(check bool) "batch replies ok" true (is_ok a && is_ok b)
  | _ -> Alcotest.fail "expected two batch replies");
  let r =
    req srv
      [ ("id", J.Int 9); ("op", J.String "explain"); ("query", J.String "why-pt") ]
  in
  Alcotest.(check (option string))
    "explain without provenance" (Some "provenance_disabled") (err_code r);
  (* a local resolves to its final SSA version: in fig1a "c" names both the
     dead pre-SSA entry and the live c#18 (pt = {y, z}) *)
  let r =
    req srv [ ("op", J.String "load"); ("path", J.String (Test_minic_files.dir ^ "fig1a.c")) ]
  in
  Alcotest.(check bool) "load fig1a ok" true (is_ok r);
  let r = req srv [ ("op", J.String "points-to"); ("var", J.String "c") ] in
  Alcotest.(check bool) "c resolves to c#18" true (J.member "var" r = Some (J.String "c#18"));
  Alcotest.(check int) "pt(c) = {y, z}" 2
    (match J.member "objects" r with Some (J.List l) -> List.length l | _ -> 0)

let test_protocol_edit_and_ids () =
  let eng = Engine.create ~differential:true () in
  let srv = Protocol.create eng in
  let r = req srv [ ("id", J.String "a"); ("op", J.String "load"); ("source", J.String tiny_source) ] in
  Alcotest.(check bool) "load ok" true (is_ok r);
  Alcotest.(check bool) "id echoed" true (J.member "id" r = Some (J.String "a"));
  let r =
    req srv
      [
        ("id", J.Int 2);
        ("op", J.String "edit");
        ("fn", J.String "writer");
        ("code", J.String "void writer(int *p) { *p = 1; *p = 2; }");
      ]
  in
  Alcotest.(check bool) "edit ok" true (is_ok r);
  Alcotest.(check bool) "edit certified identical" true
    (J.member "identical" r = Some (J.Bool true));
  let r =
    req srv
      [
        ("id", J.Int 3);
        ("op", J.String "edit");
        ("fn", J.String "nope");
        ("code", J.String "void nope() { return; }");
      ]
  in
  Alcotest.(check (option string)) "edit unknown fn" (Some "parse_error") (err_code r)

(* An edit reply's phase walls are the spans of the installed generation's
   own run, the warm one: differential mode then runs a cold reference,
   whose tree is what the global span buffer holds afterwards. *)
let test_reply_walls_are_run_spans () =
  let eng = Engine.create ~differential:true () in
  let srv = Protocol.create eng in
  let load = mt_source ~target:"worker_a" ~lock_var:"m1" ~global:"g1" in
  Alcotest.(check bool) "load ok" true
    (is_ok (req srv [ ("op", J.String "load"); ("source", J.String load) ]));
  let walls =
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
  in
  (* the edit-sequence-phases expectations, per stage *)
  let flags = [ "andersen_warm"; "tm_reused"; "mhp_reused"; "locks_reused"; "svfg_patched" ] in
  let expected =
    [
      [ true; true; true; true; true ];
      [ true; false; false; false; false ];
      [ true; true; true; false; false ];
    ]
  in
  List.iter2
    (fun (stage, src) want ->
      let r = req srv [ ("op", J.String "edit"); ("source", J.String src) ] in
      if not (is_ok r) then Alcotest.failf "%s: edit failed" stage;
      let ph =
        match J.member "phases" r with
        | Some ph -> ph
        | None -> Alcotest.failf "%s: no phases in the reply" stage
      in
      let wall k =
        match J.member k ph with
        | Some (J.Float f) -> f
        | _ -> Alcotest.failf "%s: %s missing" stage k
      in
      let d = Engine.driver eng in
      List.iter
        (fun (k, name) ->
          Alcotest.(check (float 0.)) (stage ^ ": " ^ k) (D.phase_s d name) (wall k))
        walls;
      Alcotest.(check bool) (stage ^ ": planner ran") true (wall "solve_plan_s" > 0.);
      Alcotest.(check bool)
        (stage ^ ": plan and preload within the solve")
        true
        (wall "solve_plan_s" <= wall "sparse_s" && wall "solve_preload_s" <= wall "sparse_s");
      (match Fsam_obs.Span.roots () with
      | [ cold ] ->
        Alcotest.(check bool) (stage ^ ": global tree is the cold rerun") true
          (cold != d.D.root && Fsam_obs.Span.find "solve.plan" [ cold ] = None)
      | _ -> Alcotest.failf "%s: expected one root span" stage);
      List.iter2
        (fun k b ->
          Alcotest.(check bool) (stage ^ ": " ^ k) true (J.member k ph = Some (J.Bool b)))
        flags want)
    mt_stages expected

(* The crash-flush must be armed during a request, idempotently re-armable,
   and observably disarmed between requests. *)
let test_telemetry_arming () =
  let module T = Fsam_core.Telemetry in
  let path = Filename.temp_file "fsam_test" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      T.mark_flushed ();
      Alcotest.(check bool) "disarmed at start" false (T.armed ());
      T.flush_at_exit path;
      T.flush_at_exit path;
      (* idempotent re-arm *)
      Alcotest.(check bool) "armed" true (T.armed ());
      T.mark_flushed ();
      Alcotest.(check bool) "disarmed" false (T.armed ());
      let eng = Engine.create () in
      let srv = Protocol.create ~crash_telemetry:path eng in
      let r = req srv [ ("id", J.Int 1); ("op", J.String "load"); ("source", J.String tiny_source) ] in
      Alcotest.(check bool) "request ok" true (is_ok r);
      Alcotest.(check bool) "disarmed between requests" false (T.armed ());
      let r = req srv [ ("id", J.Int 2); ("op", J.String "races") ] in
      Alcotest.(check bool) "second request ok" true (is_ok r);
      Alcotest.(check bool) "still disarmed" false (T.armed ()))

(* -- determinism sweep ----------------------------------------------------- *)

(* Two identical runs must produce identical solver counters and SVFG
   fingerprints — guards the Hashtbl-iteration-order class of bugs. *)
let test_run_determinism () =
  let prog () = Fsam_frontend.Lower.compile_string tiny_source in
  let capture () =
    let d = D.run (prog ()) in
    let counter n = Option.value ~default:(-1) (Fsam_obs.Metrics.find_counter n) in
    ( Svfg.digest d.D.svfg,
      counter "sparse.propagations",
      counter "sparse.strong_updates",
      counter "sparse.weak_updates",
      List.length (Races.detect d) )
  in
  Alcotest.(check bool) "two runs identical" true (capture () = capture ())

(* fields_of is documented to return ids sorted ascending regardless of the
   order fields were materialised in, and find_field_obj must never create. *)
let test_fields_of_sorted () =
  let b = Builder.create () in
  let main = Builder.declare b "main" ~params:[] in
  let x = Builder.stack_obj b ~owner:main "x" in
  Builder.define b main (fun _ -> ());
  let p = Builder.finish b in
  List.iter
    (fun field -> ignore (Prog.field_obj p ~base:x ~field))
    [ "zeta"; "alpha"; "mid"; "beta"; "omega" ];
  let fs = Prog.fields_of p x in
  Alcotest.(check bool) "sorted by id" true (fs = List.sort compare fs);
  Alcotest.(check int) "all five present" 5 (List.length fs);
  let n0 = Prog.n_objs p in
  Alcotest.(check (option int)) "find_field_obj misses without creating" None
    (Prog.find_field_obj p ~base:x ~field:"never");
  Alcotest.(check int) "no object materialised" n0 (Prog.n_objs p)

(* -- the planner's dependency walk against the built-graph oracle ---------- *)

(* Every unit's [iter_dep_succs] edges must be exactly the oracle graph's
   edge set, and every unit's [iter_dep_preds] edges its transpose. *)
let dep_walk_is_oracle source =
  let prog = Fsam_frontend.Lower.compile_string source in
  let d = D.run prog in
  let deps = Sparse.compute_deps prog d.D.ast in
  let oracle = ref [] in
  Fsam_graph.Digraph.iter_edges (Oracle.Dep_graph.dep_graph prog d.D.svfg deps) (fun u w ->
      oracle := (u, w) :: !oracle);
  let walk = Sparse.dep_walk prog d.D.svfg deps in
  let fwd = ref [] and bwd = ref [] in
  for u = 0 to Sparse.unit_count prog d.D.svfg - 1 do
    Sparse.iter_dep_succs walk u (fun w -> fwd := (u, w) :: !fwd);
    Sparse.iter_dep_preds walk u (fun p -> bwd := (p, u) :: !bwd)
  done;
  let edges l = List.sort_uniq compare l in
  let oracle = edges !oracle in
  oracle <> [] && edges !fwd = oracle && edges !bwd = oracle

let prop_dep_walk_is_oracle =
  let module Synth = Fsam_workloads.Minic_synth in
  let gen =
    QCheck.Gen.(
      oneof
        [
          map
            (fun seed -> `Rand seed)
            (1 -- 1000);
          map
            (fun ((seed, modules), (depth, stmts)) ->
              `Synth { Synth.quick with Synth.seed; modules; chain_depth = depth; stmts_per_fn = stmts })
            (pair (pair (1 -- 1000) (1 -- 3)) (pair (1 -- 6) (16 -- 40)));
        ])
  in
  let print = function
    | `Rand seed -> Printf.sprintf "Rand_minic seed %d" seed
    | `Synth p ->
      Printf.sprintf "Minic_synth seed %d modules %d depth %d stmts %d" p.Synth.seed
        p.Synth.modules p.Synth.chain_depth p.Synth.stmts_per_fn
  in
  QCheck.Test.make ~count:20 ~name:"dependency walk equals the built-graph oracle"
    (QCheck.make ~print gen) (function
    | `Rand seed -> dep_walk_is_oracle (Fsam_workloads.Rand_minic.generate ~seed ~size:18)
    | `Synth p -> dep_walk_is_oracle (Synth.generate p))

let suite =
  [
    Alcotest.test_case "edit-differential" `Slow test_edit_differential;
    Alcotest.test_case "edit-sequence-phases" `Quick test_edit_sequence_phases;
    Alcotest.test_case "patch-promotion" `Quick test_patch_promotion;
    Alcotest.test_case "provenance-warm-chains" `Quick test_provenance_warm_chains;
    Alcotest.test_case "snapshot-roundtrip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot-rejects-garbage" `Quick test_snapshot_rejects_garbage;
    Alcotest.test_case "protocol-basics" `Quick test_protocol_basics;
    Alcotest.test_case "protocol-edit" `Quick test_protocol_edit_and_ids;
    Alcotest.test_case "reply-walls-are-run-spans" `Quick test_reply_walls_are_run_spans;
    Alcotest.test_case "telemetry-arming" `Quick test_telemetry_arming;
    Alcotest.test_case "run-determinism" `Quick test_run_determinism;
    Alcotest.test_case "fields-of-sorted" `Quick test_fields_of_sorted;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 22 |]) prop_dep_walk_is_oracle;
  ]
