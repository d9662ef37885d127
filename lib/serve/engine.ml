(* The resident analysis engine behind [fsam serve]: one loaded program
   generation (source text, frontend AST, full pipeline results), plus the
   edit / snapshot / restore lifecycle around it. Protocol concerns live in
   [Protocol].

   Every run is a [Driver.run]. Edits are incremental end to end: the
   pre-phases warm-start from the previous generation through
   [Driver.warm_hooks] (Andersen re-solves only the affected closure, the
   thread model / MHP / lock analysis are reused verbatim when the edit
   provably left fork/join/lock structure unchanged, and the SVFG is
   patched in place), and the [wh_solve] hook warm-starts the sparse solve
   from the clean slice via [Incremental.plan]. Every reuse decision is guarded
   by a structural comparison of the two generations; any guard failure
   falls that phase back to a cold run and bumps an engine-level
   [serve.fallback_cold.<reason>] counter. Differential mode re-runs the
   whole pipeline cold after each warm edit and certifies byte-identical
   results (Andersen points-to, sparse top-level and memory facts, SVFG
   structural digest, races).

   An edit may also run asynchronously (one in flight at a time): the
   pipeline runs in a spawned domain against the immutable inputs while
   queries keep answering from the previous generation, which is replaced
   only when the edit is awaited — generation-pinned reads, no locks
   needed because a generation is never mutated after installation. *)

module Ast = Fsam_frontend.Ast
module Parser = Fsam_frontend.Parser
module Lexer = Fsam_frontend.Lexer
module Lower = Fsam_frontend.Lower
module Pretty = Fsam_frontend.Pretty
module Prog = Fsam_ir.Prog
module Func = Fsam_ir.Func
module Stmt = Fsam_ir.Stmt
module Memobj = Fsam_ir.Memobj
module A = Fsam_andersen.Solver
module D = Fsam_core.Driver
module Sparse = Fsam_core.Sparse
module Races = Fsam_core.Races
module Svfg = Fsam_memssa.Svfg
module Obs = Fsam_obs
module Iset = Fsam_dsa.Iset

type gen = {
  g_source : string Lazy.t;
      (** pretty-printed lazily after function-level edits; forced by
          [source] and [snapshot] only *)
  g_ast : Ast.program;
  g_d : D.t;
  g_races : Races.race list Lazy.t;
      (** forced at most once per generation, by the protocol thread *)
}

type t = {
  mutable gen : gen option;
  config : D.config;
  differential : bool;
  fallbacks : (string, int ref) Hashtbl.t;
      (** engine-level [serve.fallback_cold.<reason>] counters — kept here
          (not in [Obs.Metrics]) because the pipeline resets the global
          registry on every run *)
  mutable fallback_total : int;
  mutable pending : pending option;
  mutable generation : int;
      (** bumped on every install (load, edit, restore) — 0 = nothing
          loaded yet *)
  mutable gen_at_us : int;  (** monotonic timestamp of the last install *)
}

and pending = { p_domain : ((gen * edit_info), string) result Domain.t }

and load_info = {
  l_funcs : int;
  l_stmts : int;
  l_vars : int;
  l_objs : int;
  l_races : int;
  l_propagations : int;
  l_digest : string;
  l_work : work;
}

(* Pre-phase work actually performed by one pipeline run — the quantities
   the incremental machinery is meant to shrink. Captured from the run's
   metrics registry before anything resets it; phases reused verbatim
   contribute zero. *)
and work = {
  wk_andersen_props : int;  (** Andersen worklist propagations *)
  wk_mhp_summaries : int;  (** MHP summary rows computed *)
  wk_svfg_pairs : int;  (** [THREAD-VF] pair candidates considered *)
  wk_sparse_props : int;  (** sparse solver propagations *)
}

(* Which pre-phases of a warm edit reused the previous generation, what
   each phase cost, and why any phase fell back. *)
and phase_summary = {
  ph_andersen_warm : bool;
  ph_tm_reused : bool;
  ph_mhp_reused : bool;
  ph_locks_reused : bool;
  ph_svfg_patched : bool;
  ph_svfg_stats : Svfg.patch_stats option;
  ph_pre_s : float;
  ph_threads_s : float;
  ph_mhp_s : float;
  ph_locks_s : float;
  ph_svfg_s : float;
  ph_solve_s : float;
}

and edit_info = {
  e_mode : [ `Incremental | `Cold ];
  e_reason : string option;  (** why the sparse solve fell back, when it did *)
  e_propagations : int;
  e_stats : Incremental.stats option;
  e_phases : phase_summary option;  (** absent when the whole edit ran cold *)
  e_work : work;
  e_fallbacks : string list;
      (** fallback-counter keys accrued by this edit (phase-prefixed) *)
  e_cold_propagations : int option;  (** differential mode only *)
  e_cold_work : work option;  (** differential mode: the reference run's work *)
  e_identical : bool option;  (** differential mode only *)
}

let create ?(jobs = 1) ?(provenance = false) ?(differential = false) () =
  {
    gen = None;
    config = { D.default_config with D.jobs; provenance };
    differential;
    fallbacks = Hashtbl.create 16;
    fallback_total = 0;
    pending = None;
    generation = 0;
    gen_at_us = 0;
  }

let loaded t = t.gen <> None
let busy t = t.pending <> None

let set_gen t g =
  t.gen <- Some g;
  t.generation <- t.generation + 1;
  t.gen_at_us <- Fsam_obs.Monotonic.now_us ()

let generation t = t.generation
let gen_age_us t = if t.generation = 0 then 0 else Fsam_obs.Monotonic.elapsed_us ~since_us:t.gen_at_us

let gen_exn t =
  match t.gen with Some g -> g | None -> invalid_arg "Engine: no program loaded"

let driver t = (gen_exn t).g_d
let source t = Lazy.force (gen_exn t).g_source
let races t = Lazy.force (gen_exn t).g_races
let races_cached t = match t.gen with Some g -> Lazy.is_val g.g_races | None -> false

let note_fallback t key =
  t.fallback_total <- t.fallback_total + 1;
  match Hashtbl.find_opt t.fallbacks key with
  | Some r -> incr r
  | None -> Hashtbl.replace t.fallbacks key (ref 1)

let fallback_total t = t.fallback_total

let fallback_counts t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.fallbacks [] |> List.sort compare

let parse source =
  match Parser.parse_string source with
  | ast -> Ok ast
  | exception Lexer.Error e | exception Parser.Error e -> Error e

let counter_or_0 name = Option.value ~default:0 (Obs.Metrics.find_counter name)

(* must run after the pipeline and before anything resets the registry *)
let capture_work d =
  {
    wk_andersen_props = counter_or_0 "andersen.iterations";
    wk_mhp_summaries = counter_or_0 "mhp.summaries_computed";
    wk_svfg_pairs = counter_or_0 "svfg.thread_pairs_considered";
    wk_sparse_props = Sparse.n_iterations d.D.sparse;
  }

let mk_gen t ~source ~ast ~d =
  let jobs = t.config.D.jobs in
  { g_source = source; g_ast = ast; g_d = d; g_races = lazy (Races.detect ~jobs d) }

let run_cold t ~source ~ast =
  mk_gen t ~source ~ast ~d:(D.run ~config:t.config (Lower.lower ast))

let info_of g =
  let d = g.g_d in
  {
    l_funcs = Prog.n_funcs d.D.prog;
    l_stmts = Prog.n_stmts d.D.prog;
    l_vars = Prog.n_vars d.D.prog;
    l_objs = Prog.n_objs d.D.prog;
    l_races = List.length (Lazy.force g.g_races);
    l_propagations = Sparse.n_iterations d.D.sparse;
    l_digest = Svfg.digest d.D.svfg;
    l_work = capture_work d;
  }

let load t source =
  if busy t then Error "edit in flight"
  else
    match parse source with
    | Error e -> Error e
    | Ok ast -> (
      match run_cold t ~source:(lazy source) ~ast with
      | g ->
        let info = info_of g in
        set_gen t g;
        Ok info
      | exception Lower.Error e -> Error e)

(* -- edit ------------------------------------------------------------------ *)

(* Splice one replacement function definition into the resident AST. The
   fragment must contain exactly one definition, of the named function; all
   other declarations stay physically identical, so the structural diff sees
   exactly one changed function. *)
let splice_fn ast ~fn ~code =
  match parse code with
  | Error e -> Error ("in replacement code: " ^ e)
  | Ok frag -> (
    match List.filter_map (function Ast.Dfun f -> Some f | _ -> None) frag with
    | [ nf ] when nf.Ast.fname = fn ->
      if List.exists (function Ast.Dfun _ -> false | _ -> true) frag then
        Error "replacement code must contain only the function definition"
      else begin
        let found = ref false in
        let ast' =
          List.map
            (function
              | Ast.Dfun f when f.Ast.fname = fn ->
                found := true;
                Ast.Dfun nf
              | d -> d)
            ast
        in
        if !found then Ok ast' else Error (Printf.sprintf "no function %S in program" fn)
      end
    | [ nf ] ->
      Error
        (Printf.sprintf "replacement defines %S, expected %S" nf.Ast.fname fn)
    | _ -> Error "replacement code must contain exactly one function definition")

(* Byte-identity check of two completed runs over the same (deterministically
   lowered) program: Andersen points-to, sparse top-level sets, memory facts
   (keyed by SVFG node {e structure} — a patched graph and a cold rebuild
   intern their nodes in different orders), SVFG fingerprint, races. *)
let same_results ~jobs a b =
  let n = Prog.n_vars a.D.prog in
  let and_ok = ref (n = Prog.n_vars b.D.prog) in
  if !and_ok then
    for v = 0 to n - 1 do
      if not (Iset.equal (A.pt_var a.D.ast v) (A.pt_var b.D.ast v)) then and_ok := false
    done;
  if !and_ok then
    for o = 0 to Prog.n_objs a.D.prog - 1 do
      if not (Iset.equal (A.pt_obj a.D.ast o) (A.pt_obj b.D.ast o)) then and_ok := false
    done;
  let ptv_ok = ref !and_ok in
  if !ptv_ok then
    for v = 0 to n - 1 do
      if not (Iset.equal (Sparse.pt_top a.D.sparse v) (Sparse.pt_top b.D.sparse v))
      then ptv_ok := false
    done;
  let pto_ok = ref true in
  if !ptv_ok then begin
    let tbl = Hashtbl.create 1024 in
    Sparse.iter_pto a.D.sparse (fun ~node ~obj s ->
        if not (Iset.is_empty s) then Hashtbl.replace tbl (Svfg.node a.D.svfg node, obj) s);
    let matched = ref 0 in
    Sparse.iter_pto b.D.sparse (fun ~node ~obj s ->
        if not (Iset.is_empty s) then
          match Hashtbl.find_opt tbl (Svfg.node b.D.svfg node, obj) with
          | Some s' when Iset.equal s s' -> incr matched
          | _ -> pto_ok := false);
    if !matched <> Hashtbl.length tbl then pto_ok := false
  end;
  !ptv_ok && !pto_ok
  && String.equal (Svfg.digest a.D.svfg) (Svfg.digest b.D.svfg)
  && List.sort compare (Races.detect ~jobs a) = List.sort compare (Races.detect ~jobs b)

(* -- cross-generation reuse guards ----------------------------------------- *)

let stmt_is_sync = function Stmt.Call _ | Stmt.Fork _ | Stmt.Join _ -> true | _ -> false
let stmt_is_lockop = function Stmt.Lock _ | Stmt.Unlock _ -> true | _ -> false

(* Structural facts about the edit, computed once per edit from the diff
   and the two lowered programs (no solver results needed). *)
type edit_shape = {
  sh_fid_identity : bool;  (** same functions at the same fids *)
  sh_gid_identity : bool;
      (** [sh_fid_identity] + per-function statement counts and local CFGs
          equal: statement gids denote the same positions in both programs *)
  sh_objs_identical : bool;  (** object tables structurally equal, id for id *)
  sh_changed : (int * Stmt.t * Stmt.t) list;
      (** (gid, old stmt, new stmt) for the statements that differ
          (populated only under [sh_gid_identity]) *)
  sh_dirty_fids : int list;  (** new fids whose AST changed *)
}

let edit_shape ~(diff : Diff.t) ~old_prog ~new_prog =
  let fid_identity =
    Prog.n_funcs old_prog = Prog.n_funcs new_prog
    &&
    let ok = ref true in
    Array.iteri (fun o n -> if o <> n then ok := false) diff.Diff.fid_map;
    !ok
  in
  let gid_identity =
    fid_identity
    && Prog.n_stmts old_prog = Prog.n_stmts new_prog
    &&
    let ok = ref true in
    Prog.iter_funcs new_prog (fun f ->
        let of_ = Prog.func old_prog f.Func.fid in
        if
          Func.n_stmts of_ <> Func.n_stmts f
          || of_.Func.succ <> f.Func.succ
          || of_.Func.pred <> f.Func.pred
          || of_.Func.exits <> f.Func.exits
        then ok := false);
    !ok
  in
  let objs_identical =
    Prog.n_objs old_prog = Prog.n_objs new_prog
    &&
    let ok = ref true in
    Prog.iter_objs new_prog (fun o -> if Prog.obj old_prog o.Memobj.id <> o then ok := false);
    !ok
  in
  let changed = ref [] in
  if gid_identity then
    Prog.iter_stmts new_prog (fun gid _ sn ->
        let so = Prog.stmt_at old_prog gid in
        if so <> sn then changed := (gid, so, sn) :: !changed);
  let dirty = ref [] in
  Array.iteri
    (fun fid clean -> if not clean then dirty := fid :: !dirty)
    diff.Diff.clean_new_fid;
  {
    sh_fid_identity = fid_identity;
    sh_gid_identity = gid_identity;
    sh_objs_identical = objs_identical;
    sh_changed = !changed;
    sh_dirty_fids = List.rev !dirty;
  }

(* The thread model (ICFG + thread discovery) is a function of the CFGs and
   the call / fork / join resolution. Reusable verbatim when gids are
   identical, no edited statement is a synchronization statement, and the
   new Andersen run resolved every call, fork and join site to the same
   (canonically sorted) targets as the old one. *)
let tm_guard ~shape ~old_prog ~old_and ~new_prog ~new_and =
  if not shape.sh_gid_identity then Error "tm_shape"
  else if Prog.n_forks old_prog <> Prog.n_forks new_prog then Error "tm_forks"
  else if
    List.exists (fun (_, so, sn) -> stmt_is_sync so || stmt_is_sync sn) shape.sh_changed
  then Error "tm_sync_edit"
  else begin
    let ok = ref true in
    Prog.iter_funcs new_prog (fun f ->
        let fid = f.Func.fid in
        Func.iter_stmts f (fun i s ->
            match s with
            | Stmt.Call _ ->
              if A.callees old_and ~fid ~idx:i <> A.callees new_and ~fid ~idx:i then
                ok := false
            | Stmt.Fork { fork_id; _ } ->
              if
                A.callees old_and ~fid ~idx:i <> A.callees new_and ~fid ~idx:i
                || A.fork_targets old_and fork_id <> A.fork_targets new_and fork_id
              then ok := false
            | Stmt.Join _ ->
              if A.join_threads old_and ~fid ~idx:i <> A.join_threads new_and ~fid ~idx:i
              then ok := false
            | _ -> ()));
    if !ok then Ok () else Error "tm_resolution_drift"
  end

(* The lock analysis is a function of the thread model, the lock/unlock
   statements' CFG positions and their operands' points-to sets. *)
let locks_guard ~shape ~old_prog ~old_and ~new_prog ~new_and =
  if List.exists (fun (_, so, sn) -> stmt_is_lockop so || stmt_is_lockop sn) shape.sh_changed
  then Error "locks_edit"
  else begin
    let ok = ref true in
    Prog.iter_stmts new_prog (fun gid _ sn ->
        match sn with
        | Stmt.Lock vn | Stmt.Unlock vn -> (
          match Prog.stmt_at old_prog gid with
          | Stmt.Lock vo | Stmt.Unlock vo ->
            if not (Iset.equal (A.pt_var old_and vo) (A.pt_var new_and vn)) then ok := false
          | _ -> ok := false)
        | _ -> ());
    if !ok then Ok () else Error "locks_operand_drift"
  end

(* -- the edit pipeline ----------------------------------------------------- *)

(* Computes a full new generation from [old] + [new_ast] without touching
   [t.gen] — safe to run in a spawned domain while queries keep answering
   from [old]. All fallback bookkeeping rides back in [e_fallbacks]. *)
let compute_edit t ~old new_ast =
  let new_source = lazy (Pretty.to_string new_ast) in
  let reason = ref None in
  (* the plan's stats and the object count the warm solve started from *)
  let planned = ref None in
  let fallbacks = ref [] in
  let note key = fallbacks := key :: !fallbacks in
  let phases = ref None in
  let run_incremental () =
    match Lower.lower new_ast with
    | exception Lower.Error e -> Error e
    | new_prog -> (
      match
        Diff.compute ~old_ast:old.g_ast ~old_prog:old.g_d.D.prog ~new_ast ~new_prog
      with
      | Error msg ->
        reason := Some msg;
        note "diff";
        Ok (run_cold t ~source:new_source ~ast:new_ast)
      | Ok diff -> (
        let old_d = old.g_d in
        let old_prog = old_d.D.prog and old_and = old_d.D.ast in
        let shape = edit_shape ~diff ~old_prog ~new_prog in
        let f_and = ref false
        and f_tm = ref false
        and f_mhp = ref false
        and f_locks = ref false
        and f_svfg = ref false in
        let svfg_stats = ref None in
        let plan_solve prog new_and svfg ~singleton =
          match
            Incremental.plan ~diff ~old_prog ~old_and ~old_svfg:old_d.D.svfg
              ~old_sparse:old_d.D.sparse ~old_singleton:old_d.D.singleton ~new_prog:prog
              ~new_and ~new_svfg:svfg ~new_singleton:singleton
          with
          | Error msg ->
            reason := Some msg;
            note "sparse_plan";
            None
          | Ok (warm, st) ->
            planned := Some (st, Prog.n_objs prog);
            Some warm
        in
        let warm_hooks =
          {
            D.wh_andersen =
              (fun prog ->
                if not shape.sh_fid_identity then begin
                  note "andersen_fid_drift";
                  None
                end
                else
                  match
                    A.run_warm prog
                      ~warm:
                        {
                          A.ws_old = old_and;
                          ws_var_map = diff.Diff.var_map;
                          ws_dirty_fids = shape.sh_dirty_fids;
                        }
                  with
                  | Ok a ->
                    f_and := true;
                    Some a
                  | Error r ->
                    note r;
                    None);
            D.wh_thread_model =
              (fun _prog new_and ->
                match tm_guard ~shape ~old_prog ~old_and ~new_prog ~new_and with
                | Ok () ->
                  f_tm := true;
                  Some (old_d.D.icfg, old_d.D.tm)
                | Error r ->
                  note r;
                  None);
            D.wh_mhp =
              (fun tm ->
                (* MHP is a pure function of the thread model: reused iff
                   the thread model itself was *)
                if tm == old_d.D.tm then begin
                  f_mhp := true;
                  Some old_d.D.mhp
                end
                else begin
                  note "mhp_tm_rebuilt";
                  None
                end);
            D.wh_locks =
              (fun _prog new_and tm ->
                if tm != old_d.D.tm then begin
                  note "locks_tm_rebuilt";
                  None
                end
                else
                  match locks_guard ~shape ~old_prog ~old_and ~new_prog ~new_and with
                  | Ok () ->
                    f_locks := true;
                    Some old_d.D.locks
                  | Error r ->
                    note r;
                    None);
            D.wh_svfg =
              (fun prog new_and modref icfg tm mhp locks pcg ->
                if not (tm == old_d.D.tm && mhp == old_d.D.mhp && locks == old_d.D.locks)
                then begin
                  note "svfg_inputs_rebuilt";
                  None
                end
                else if not shape.sh_objs_identical then begin
                  note "svfg_obj_drift";
                  None
                end
                else
                  match
                    Svfg.patch old_d.D.svfg ~config:t.config.D.svfg ~jobs:t.config.D.jobs
                      ~prog ~old_ast:old_and ~ast:new_and ~old_mr:old_d.D.modref ~mr:modref
                      ~icfg ~tm ~mhp ~lk:locks ~pcg ~edited_fids:shape.sh_dirty_fids ()
                  with
                  | Ok (s, ps) ->
                    f_svfg := true;
                    svfg_stats := Some ps;
                    Some s
                  | Error r ->
                    note r;
                    None);
            D.wh_solve = plan_solve;
          }
        in
        (* warm pre-phases skip the derivation recording [explain] needs;
           under --provenance every pre-phase runs cold (the sparse solve
           still warm-starts — it threads [?prov] through) *)
        let warm_hooks =
          if t.config.D.provenance then begin
            note "provenance_mode";
            { D.cold_hooks with D.wh_solve = plan_solve }
          end
          else warm_hooks
        in
        let d = D.run ~config:t.config ~warm:warm_hooks new_prog in
        match !planned with
        | Some (_, n_objs0) when Prog.n_objs new_prog <> n_objs0 ->
          (* the warm drain skipped clean units; had it materialised a field
             object the cold reference run wouldn't have (or in a different
             order), every object id after it would drift. Andersen
             over-approximates the sparse solve, so this must not happen —
             but it is cheap to verify. The tainted [new_prog] is discarded:
             re-lower from the AST so the cold run sees the pristine object
             table. *)
          reason := Some "warm solve materialised objects";
          note "sparse_growth";
          planned := None;
          Ok (run_cold t ~source:new_source ~ast:new_ast)
        | _ ->
          phases :=
            Some
              {
                ph_andersen_warm = !f_and;
                ph_tm_reused = !f_tm;
                ph_mhp_reused = !f_mhp;
                ph_locks_reused = !f_locks;
                ph_svfg_patched = !f_svfg;
                ph_svfg_stats = !svfg_stats;
                ph_pre_s = d.D.times.D.t_pre;
                ph_threads_s = d.D.times.D.t_thread_model;
                ph_mhp_s = d.D.times.D.t_interleaving;
                ph_locks_s = d.D.times.D.t_lock;
                ph_svfg_s = d.D.times.D.t_svfg;
                ph_solve_s = d.D.times.D.t_solve;
              };
          Ok (mk_gen t ~source:new_source ~ast:new_ast ~d)))
  in
  match run_incremental () with
  | Error e -> Error e
  | Ok g ->
    let warm_work = capture_work g.g_d in
    let mode = if !planned = None then `Cold else `Incremental in
    let cold_propagations, cold_work, identical =
      if t.differential && mode = `Incremental then begin
        let cold = run_cold t ~source:new_source ~ast:new_ast in
        let cw = capture_work cold.g_d in
        ( Some (Sparse.n_iterations cold.g_d.D.sparse),
          Some cw,
          Some (same_results ~jobs:t.config.D.jobs g.g_d cold.g_d) )
      end
      else (None, None, None)
    in
    Ok
      ( g,
        {
          e_mode = mode;
          e_reason = !reason;
          e_propagations = Sparse.n_iterations g.g_d.D.sparse;
          e_stats = Option.map fst !planned;
          e_phases = !phases;
          e_work = warm_work;
          e_fallbacks = List.rev !fallbacks;
          e_cold_propagations = cold_propagations;
          e_cold_work = cold_work;
          e_identical = identical;
        } )

let install t = function
  | Error e -> Error e
  | Ok (g, info) ->
    set_gen t g;
    List.iter (fun key -> note_fallback t key) info.e_fallbacks;
    Ok info

let edit_ast t new_ast =
  let old = gen_exn t in
  if busy t then Error "edit in flight"
  else install t (compute_edit t ~old new_ast)

let edit_fn t ~fn ~code =
  let old = gen_exn t in
  match splice_fn old.g_ast ~fn ~code with
  | Error e -> Error e
  | Ok ast -> edit_ast t ast

let edit_source t source =
  let _ = gen_exn t in
  match parse source with Error e -> Error e | Ok ast -> edit_ast t ast

(* -- asynchronous edits ---------------------------------------------------- *)

(* The spawned domain only reads immutable state (the old generation, the
   engine config, the parsed new AST); [t.gen] and the fallback counters are
   only touched on the protocol thread, at [edit_wait]. *)
let edit_ast_async t new_ast =
  let old = gen_exn t in
  if busy t then Error "edit in flight"
  else begin
    let d = Domain.spawn (fun () -> compute_edit t ~old new_ast) in
    t.pending <- Some { p_domain = d };
    Ok ()
  end

let edit_fn_async t ~fn ~code =
  let old = gen_exn t in
  match splice_fn old.g_ast ~fn ~code with
  | Error e -> Error e
  | Ok ast -> edit_ast_async t ast

let edit_source_async t source =
  let _ = gen_exn t in
  match parse source with
  | Error e -> Error e
  | Ok ast -> edit_ast_async t ast

let edit_wait t =
  match t.pending with
  | None -> Error "no edit in flight"
  | Some p ->
    let r = Domain.join p.p_domain in
    t.pending <- None;
    install t r

(* -- snapshot / restore ---------------------------------------------------- *)

(* [Iset] values are hash-consed (physical equality, process-local tags), so
   marshalling them directly would be unsound; snapshots store portable
   element lists and re-intern on restore. Memory facts are keyed by SVFG
   node {e structure} (gids / fids / object ids), never by intern-order node
   index: an incrementally patched generation numbers its nodes differently
   from the fresh graph a restore builds. The AST is plain data.

   Restore never resurrects solver-internal structures: it re-lowers and
   re-runs every pre-phase cold (rebuilding the edge-owner and def-use
   splice indexes from scratch), then warm-starts only the final sparse
   solve from the stored facts under a full verification sweep. A restored
   daemon therefore warm-patches subsequent edits from freshly built
   structures, never from marshalled ones. *)
type payload = {
  sp_source : string;
  sp_ast : Ast.program;
  sp_ptv : (int * int list) list;
  sp_pto : ((Svfg.node * int) * int list) list;
  sp_digest : string;
}

let magic = "FSAMSNAP2\n"

let snapshot t path =
  match t.gen with
  | None -> Error "no program loaded"
  | Some _ when busy t -> Error "edit in flight"
  | Some g -> (
    let sp = g.g_d.D.sparse in
    let svfg = g.g_d.D.svfg in
    let ptv = ref [] in
    for v = Prog.n_vars g.g_d.D.prog - 1 downto 0 do
      let s = Sparse.pt_top sp v in
      if not (Iset.is_empty s) then ptv := (v, Iset.elements s) :: !ptv
    done;
    let pto = ref [] in
    Sparse.iter_pto sp (fun ~node ~obj s ->
        if not (Iset.is_empty s) then
          pto := ((Svfg.node svfg node, obj), Iset.elements s) :: !pto);
    let payload =
      {
        sp_source = Lazy.force g.g_source;
        sp_ast = g.g_ast;
        sp_ptv = !ptv;
        sp_pto = List.sort compare !pto;
        sp_digest = Svfg.digest svfg;
      }
    in
    try
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc magic;
          Marshal.to_channel oc payload []);
      Ok ()
    with Sys_error e -> Error e)

exception Bad_snapshot of string

let restore t path =
  if busy t then Error "edit in flight"
  else
    try
      let payload =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let m =
              try really_input_string ic (String.length magic)
              with End_of_file -> raise (Bad_snapshot "truncated file")
            in
            if m <> magic then raise (Bad_snapshot "not an fsam snapshot");
            match (Marshal.from_channel ic : payload) with
            | p -> p
            | exception (Failure _ | End_of_file) ->
              raise (Bad_snapshot "corrupt payload"))
      in
      let ast = payload.sp_ast in
      let restore_solve prog _ svfg ~singleton:_ =
        let n_vars = Prog.n_vars prog in
        let n_objs = Prog.n_objs prog in
        let w_ptv = Array.make (max 1 n_vars) Iset.empty in
        List.iter
          (fun (v, elts) ->
            if v < 0 || v >= n_vars then
              raise (Bad_snapshot "variable id out of range");
            w_ptv.(v) <- Iset.of_list elts)
          payload.sp_ptv;
        let w_pto =
          List.map
            (fun ((nd, obj), elts) ->
              let node =
                match Svfg.node_id svfg nd with
                | Some n -> n
                | None -> raise (Bad_snapshot "unknown SVFG node")
              in
              if obj < 0 || obj >= n_objs then
                raise (Bad_snapshot "fact id out of range");
              ((node, obj), Iset.of_list elts))
            payload.sp_pto
        in
        (* verification sweep: seed EVERY unit. With the snapshot
           pre-loaded this is ~one pass over the program; any fact the
           snapshot is missing would register as growth, which is rejected
           once the run returns. *)
        Some { Sparse.w_ptv; w_pto; w_units = Sparse.all_units prog svfg }
      in
      let d =
        D.run ~config:t.config
          ~warm:{ D.cold_hooks with D.wh_solve = restore_solve }
          (Lower.lower ast)
      in
      let growth = Sparse.n_growth d.D.sparse in
      if growth <> 0 then
        Error (Printf.sprintf "stale snapshot: verification sweep grew %d facts" growth)
      else if not (String.equal (Svfg.digest d.D.svfg) payload.sp_digest) then
        Error "stale snapshot: SVFG fingerprint mismatch"
      else begin
        let g = mk_gen t ~source:(lazy payload.sp_source) ~ast ~d in
        let info = info_of g in
        set_gen t g;
        Ok info
      end
    with
    | Bad_snapshot e -> Error e
    | Sys_error e -> Error e
    | Lower.Error e -> Error ("snapshot program no longer lowers: " ^ e)
