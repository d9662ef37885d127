(* bench_gate — regression gate for the BENCH_*.json documents.

   Compares a fresh benchmark document against a committed baseline from
   bench/baselines/ and exits non-zero when a gated metric regressed.

   Gating policy (chosen so the gate is meaningful on any machine):
   - deterministic metrics — fact counts, propagation counts, finding
     counts, identity booleans, status strings — are compared exactly by
     default: these must never drift silently;
   - ratio metrics (keys containing "speedup" or "ratio") are
     machine-sensitive, so they are gated only when --ratio-tolerance PCT
     is given (relative drift beyond PCT fails); additionally,
     --speedup-floor F gates every "speedup" key by an absolute one-sided
     floor — the fresh value must be >= F regardless of the baseline (the
     CI contract "a warm edit must at least break even with a cold load");
   - timing/size metrics (suffixes _s, _us, _mb, _pct, or key "seconds")
     are informational unless --wall-tolerance PCT is given;
   - bookkeeping keys (git_commit, schema, quick, budget_s, scale) and the
     free-form metrics/spans/profile subtrees are never gated.

   Rows in list-of-object tables are aligned by their "program" field when
   present, by index otherwise; a baseline row or key missing from the
   fresh document is a failure (coverage must not shrink), a new key is a
   note only (schemas may grow additively).

   --self-test FILE proves the gate works without running benchmarks
   twice: FILE vs itself must pass, then the first gated integer leaf is
   perturbed by 20% (>= +1) and the comparison must fail. *)

module J = Fsam_obs.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  match J.of_string (read_file path) with
  | Ok j -> j
  | Error e ->
    Printf.eprintf "bench_gate: cannot parse %s: %s\n" path e;
    exit 2

(* -- key classification ---------------------------------------------------- *)

let skip_keys = [ "git_commit"; "schema"; "quick"; "budget_s"; "scale" ]
let skip_subtrees = [ "metrics"; "spans"; "profile" ]

let has_suffix suf s =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.sub s (ls - lf) lf = suf

let contains sub s =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  go 0

let is_timing k =
  has_suffix "_s" k || has_suffix "_us" k || has_suffix "_mb" k || has_suffix "_pct" k
  || contains "seconds" k

let is_ratio k = contains "speedup" k || contains "ratio" k

type klass = Skip | Timing | Ratio | Exact

(* Classify by the whole path, not just the leaf key: a timing table like
   [phases_s.pre] stores wall seconds under phase-name leaves, so a
   timing/ratio marker anywhere on the path claims the subtree. *)
let strip_index k = match String.index_opt k '[' with Some i -> String.sub k 0 i | None -> k

let classify path =
  let comps = List.map strip_index (String.split_on_char '.' path) in
  let leaf = match List.rev comps with l :: _ -> l | [] -> path in
  if List.mem leaf skip_keys then Skip
  else if List.exists is_ratio comps then Ratio
  else if List.exists is_timing comps then Timing
  else Exact

(* -- comparison ------------------------------------------------------------ *)

type verdict = {
  mutable failures : string list;  (** gated metric regressed *)
  mutable notes : string list;  (** informational drift / additive keys *)
  mutable gated : int;  (** leaves compared under the exact/tolerance rules *)
}

let fail v fmt = Printf.ksprintf (fun s -> v.failures <- s :: v.failures) fmt
let note v fmt = Printf.ksprintf (fun s -> v.notes <- s :: v.notes) fmt

let num_of = function J.Int i -> Some (float_of_int i) | J.Float f -> Some f | _ -> None

let rel_drift a b =
  if a = 0. then if b = 0. then 0. else infinity else abs_float (b -. a) /. abs_float a

let pp_leaf = function
  | J.Int i -> string_of_int i
  | J.Float f -> Printf.sprintf "%g" f
  | J.Bool b -> string_of_bool b
  | J.String s -> Printf.sprintf "%S" s
  | J.Null -> "null"
  | J.List _ | J.Obj _ -> "<tree>"

(* Align two row lists by the "program" field when every row has one. *)
let row_key j = match J.member "program" j with Some (J.String s) -> Some s | _ -> None

let rec compare_tree ~ratio_tol ~wall_tol ~speedup_floor v path base fresh =
  let recurse = compare_tree ~ratio_tol ~wall_tol ~speedup_floor v in
  match (base, fresh) with
  | J.Obj bs, J.Obj fs ->
    List.iter
      (fun (k, bv) ->
        let p = if path = "" then k else path ^ "." ^ k in
        if List.mem k skip_subtrees then ()
        else
          match List.assoc_opt k fs with
          | Some fv -> recurse p bv fv
          | None -> fail v "%s: key missing from fresh document" p)
      bs;
    List.iter
      (fun (k, _) ->
        if not (List.mem_assoc k bs) then
          note v "%s.%s: new key (not in baseline)" path k)
      fs
  | J.List bs, J.List fs
    when bs <> [] && List.for_all (fun r -> row_key r <> None) bs
         && List.for_all (fun r -> row_key r <> None) fs ->
    List.iter
      (fun br ->
        let key = Option.get (row_key br) in
        let p = Printf.sprintf "%s[%s]" path key in
        match List.find_opt (fun fr -> row_key fr = Some key) fs with
        | Some fr -> recurse p br fr
        | None -> fail v "%s: row missing from fresh document" p)
      bs;
    List.iter
      (fun fr ->
        let key = Option.get (row_key fr) in
        if not (List.exists (fun br -> row_key br = Some key) bs) then
          note v "%s[%s]: new row (not in baseline)" path key)
      fs
  | J.List bs, J.List fs ->
    if List.length bs <> List.length fs then
      fail v "%s: length %d -> %d" path (List.length bs) (List.length fs)
    else
      List.iteri
        (fun i (bv, fv) -> recurse (Printf.sprintf "%s[%d]" path i) bv fv)
        (List.combine bs fs)
  | _ -> (
    match classify path with
    | Skip -> ()
    | Ratio ->
      let leaf =
        match List.rev (String.split_on_char '.' path) with l :: _ -> l | [] -> path
      in
      (match (speedup_floor, num_of fresh) with
      | Some floor, Some b when contains "speedup" leaf ->
        v.gated <- v.gated + 1;
        if b < floor then
          fail v "%s: speedup %.2fx below the %.2fx floor" path b floor
      | _ -> ());
      (match (ratio_tol, num_of base, num_of fresh) with
      | Some tol, Some a, Some b ->
        v.gated <- v.gated + 1;
        let d = rel_drift a b in
        if d > tol /. 100. then
          fail v "%s: ratio drifted %.1f%% (%.4g -> %.4g, tolerance %.1f%%)" path
            (100. *. d) a b tol
      | _ ->
        if not (J.equal base fresh) then
          note v "%s: %s -> %s (ratio, informational)" path (pp_leaf base) (pp_leaf fresh))
    | Timing -> (
      match (wall_tol, num_of base, num_of fresh) with
      | Some tol, Some a, Some b ->
        v.gated <- v.gated + 1;
        (* one-sided: only slower/bigger fails *)
        if b > a *. (1. +. (tol /. 100.)) then
          fail v "%s: regressed %.1f%% (%.4g -> %.4g, tolerance %.1f%%)" path
            (100. *. rel_drift a b) a b tol
      | _ ->
        if not (J.equal base fresh) then
          note v "%s: %s -> %s (timing, informational)" path (pp_leaf base)
            (pp_leaf fresh))
    | Exact ->
      v.gated <- v.gated + 1;
      if not (J.equal base fresh) then
        fail v "%s: %s -> %s (gated exactly)" path (pp_leaf base) (pp_leaf fresh))

let run_compare ?(speedup_floor = None) ~ratio_tol ~wall_tol base fresh =
  let v = { failures = []; notes = []; gated = 0 } in
  compare_tree ~ratio_tol ~wall_tol ~speedup_floor v "" base fresh;
  v.failures <- List.rev v.failures;
  v.notes <- List.rev v.notes;
  v

let print_report ~report ~baseline ~fresh v =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "bench_gate: %s vs %s" baseline fresh;
  line "gated leaves: %d, failures: %d, notes: %d" v.gated (List.length v.failures)
    (List.length v.notes);
  List.iter (fun f -> line "FAIL %s" f) v.failures;
  List.iter (fun n -> line "note %s" n) v.notes;
  line "%s" (if v.failures = [] then "PASS" else "REGRESSION DETECTED");
  print_string (Buffer.contents buf);
  match report with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Buffer.contents buf))

(* -- self-test ------------------------------------------------------------- *)

(* Perturb the first gated exact integer leaf by 20% (at least +1) — the
   injected regression the gate must catch. *)
let rec perturb path j =
  match j with
  | J.Obj fields ->
    let hit = ref false in
    let fields =
      List.map
        (fun (k, v) ->
          if !hit || List.mem k skip_subtrees then (k, v)
          else
            let p = if path = "" then k else path ^ "." ^ k in
            match perturb p v with
            | Some v' ->
              hit := true;
              (k, v')
            | None -> (k, v))
        fields
    in
    if !hit then Some (J.Obj fields) else None
  | J.List items ->
    let hit = ref false in
    let items =
      List.mapi
        (fun i v ->
          if !hit then v
          else
            match perturb (Printf.sprintf "%s[%d]" path i) v with
            | Some v' ->
              hit := true;
              v'
            | None -> v)
        items
    in
    if !hit then Some (J.List items) else None
  | J.Int n when classify path = Exact && n > 0 ->
    Some (J.Int (n + max 1 (n / 5)))
  | _ -> None

let self_test path =
  let doc = load path in
  let replay = run_compare ~ratio_tol:None ~wall_tol:None doc doc in
  if replay.failures <> [] then begin
    Printf.printf "self-test FAILED: baseline replay reported regressions:\n";
    List.iter (fun f -> Printf.printf "  %s\n" f) replay.failures;
    exit 1
  end;
  Printf.printf "self-test: baseline replay passed (%d gated leaves)\n" replay.gated;
  match perturb "" doc with
  | None ->
    Printf.printf "self-test FAILED: no gated integer leaf to perturb in %s\n" path;
    exit 1
  | Some doc' ->
    let v = run_compare ~ratio_tol:None ~wall_tol:None doc doc' in
    if v.failures = [] then begin
      Printf.printf "self-test FAILED: injected 20%% regression was not detected\n";
      exit 1
    end;
    Printf.printf "self-test: injected regression detected (%s)\n"
      (List.hd v.failures);
    Printf.printf "self-test PASS\n"

(* -- CLI ------------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench_gate --baseline FILE --fresh FILE [--ratio-tolerance PCT]\n\
    \       [--wall-tolerance PCT] [--speedup-floor X] [--report FILE]\n\
    \       bench_gate --self-test FILE";
  exit 2

let () =
  let baseline = ref None
  and fresh = ref None
  and ratio_tol = ref None
  and wall_tol = ref None
  and speedup_floor = ref None
  and report = ref None
  and selftest = ref None in
  let rec parse = function
    | [] -> ()
    | "--baseline" :: v :: rest ->
      baseline := Some v;
      parse rest
    | "--fresh" :: v :: rest ->
      fresh := Some v;
      parse rest
    | "--ratio-tolerance" :: v :: rest ->
      ratio_tol := float_of_string_opt v;
      if !ratio_tol = None then usage ();
      parse rest
    | "--wall-tolerance" :: v :: rest ->
      wall_tol := float_of_string_opt v;
      if !wall_tol = None then usage ();
      parse rest
    | "--speedup-floor" :: v :: rest ->
      speedup_floor := float_of_string_opt v;
      if !speedup_floor = None then usage ();
      parse rest
    | "--report" :: v :: rest ->
      report := Some v;
      parse rest
    | "--self-test" :: v :: rest ->
      selftest := Some v;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!selftest, !baseline, !fresh) with
  | Some path, None, None -> self_test path
  | None, Some b, Some f ->
    let v =
      run_compare ~speedup_floor:!speedup_floor ~ratio_tol:!ratio_tol
        ~wall_tol:!wall_tol (load b) (load f)
    in
    print_report ~report:!report ~baseline:b ~fresh:f v;
    if v.failures <> [] then exit 1
  | _ -> usage ()
