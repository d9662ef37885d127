open Fsam_ir
module A = Fsam_andersen.Solver
module Modref = Fsam_andersen.Modref
module Mta = Fsam_mta
module Svfg = Fsam_memssa.Svfg
module Obs = Fsam_obs

type config = {
  svfg : Svfg.config;
  max_ctx_depth : int;
  nonsparse_budget : float;
  jobs : int;
  provenance : bool;
  profile : bool;
}

let default_config =
  {
    svfg = Svfg.default_config;
    max_ctx_depth = 24;
    nonsparse_budget = 7200.;
    jobs = 1;
    provenance = false;
    profile = false;
  }

let no_interleaving =
  { default_config with svfg = { Svfg.default_config with use_interleaving = false } }

let no_value_flow =
  { default_config with svfg = { Svfg.default_config with use_value_flow = false } }

let no_lock = { default_config with svfg = { Svfg.default_config with use_lock = false } }

type phase_times = {
  t_pre : float;
  t_thread_model : float;
  t_interleaving : float;
  t_lock : float;
  t_svfg : float;
  t_solve : float;
}

(* Per-phase warm-start hooks (the fsam serve engine's incremental edit
   path and snapshot restore). Each hook may produce the phase's result
   from the previous generation — [None] falls back to the normal cold
   computation; [wh_solve] instead returns the warm start the sparse solve
   drains from. Hooks run inside the phase spans, so the phase walls
   reflect whatever path was taken. modref, pcg and the singleton analysis
   are always recomputed: they are cheap, and recomputing them keeps the
   reuse guards (which compare old-vs-new summaries) honest. *)
type warm_hooks = {
  wh_andersen : Prog.t -> A.t option;
  wh_thread_model : Prog.t -> A.t -> (Mta.Icfg.t * Mta.Threads.t) option;
  wh_mhp : Mta.Threads.t -> Mta.Mhp.t option;
  wh_locks : Prog.t -> A.t -> Mta.Threads.t -> Mta.Locks.t option;
  wh_svfg :
    Prog.t ->
    A.t ->
    Modref.t ->
    Mta.Icfg.t ->
    Mta.Threads.t ->
    Mta.Mhp.t ->
    Mta.Locks.t ->
    Mta.Pcg.t ->
    Svfg.t option;
  wh_solve : Prog.t -> A.t -> Svfg.t -> singleton:(int -> bool) -> Sparse.warm option;
}

let cold_hooks =
  {
    wh_andersen = (fun _ -> None);
    wh_thread_model = (fun _ _ -> None);
    wh_mhp = (fun _ -> None);
    wh_locks = (fun _ _ _ -> None);
    wh_svfg = (fun _ _ _ _ _ _ _ _ -> None);
    wh_solve = (fun _ _ _ ~singleton:_ -> None);
  }

type t = {
  prog : Prog.t;
  ast : A.t;
  modref : Modref.t;
  icfg : Mta.Icfg.t;
  tm : Mta.Threads.t;
  mhp : Mta.Mhp.t;
  locks : Mta.Locks.t;
  pcg : Mta.Pcg.t;
  svfg : Svfg.t;
  singleton : int -> bool;
  sparse : Sparse.t;
  times : phase_times;
  prov : Fsam_prov.t option;
}

(* Each [run] owns the process-global observability buffers: spans and
   metrics are reset at entry, so after [run] returns they describe exactly
   that pipeline execution (exported by [Telemetry]). *)
let run ?(config = default_config) ?warm prog =
  Validate.check_exn prog;
  Obs.Span.reset ();
  Obs.Metrics.reset ();
  Obs.Profile.set_enabled config.profile;
  Obs.Profile.reset ();
  let prov = if config.provenance then Some (Fsam_prov.create ()) else None in
  let try_warm get compute =
    match warm with
    | None -> compute ()
    | Some h -> ( match get h with Some v -> v | None -> compute ())
  in
  Obs.Span.with_ ~name:"fsam.run" (fun () ->
      let (ast, modref), sp_pre =
        Obs.Span.with_timed ~name:"phase.pre" (fun () ->
            let ast = try_warm (fun h -> h.wh_andersen prog) (fun () -> A.run ?prov prog) in
            let modref =
              Obs.Span.with_ ~name:"modref.compute" (fun () -> Modref.compute prog ast)
            in
            (ast, modref))
      in
      let (icfg, tm), sp_threads =
        Obs.Span.with_timed ~name:"phase.threads" (fun () ->
            try_warm
              (fun h -> h.wh_thread_model prog ast)
              (fun () ->
                let icfg =
                  Obs.Span.with_ ~name:"icfg.build" (fun () -> Mta.Icfg.build prog ast)
                in
                let tm =
                  Obs.Span.with_ ~name:"threads.build" (fun () ->
                      Mta.Threads.build ~max_ctx_depth:config.max_ctx_depth prog ast icfg)
                in
                (icfg, tm)))
      in
      let mhp, sp_mhp =
        Obs.Span.with_timed ~name:"phase.mhp" (fun () ->
            try_warm (fun h -> h.wh_mhp tm) (fun () -> Mta.Mhp.compute ~jobs:config.jobs tm))
      in
      let locks, sp_lock =
        Obs.Span.with_timed ~name:"phase.locks" (fun () ->
            try_warm
              (fun h -> h.wh_locks prog ast tm)
              (fun () -> Mta.Locks.compute prog ast tm))
      in
      let pcg = Obs.Span.with_ ~name:"pcg.compute" (fun () -> Mta.Pcg.compute tm icfg) in
      let svfg, sp_svfg =
        Obs.Span.with_timed ~name:"phase.svfg" (fun () ->
            try_warm
              (fun h -> h.wh_svfg prog ast modref icfg tm mhp locks pcg)
              (fun () ->
                Svfg.build ~config:config.svfg ~jobs:config.jobs ?prov prog ast modref icfg tm
                  mhp locks pcg))
      in
      let (singleton, sparse), sp_solve =
        Obs.Span.with_timed ~name:"phase.solve" (fun () ->
            let singleton =
              Obs.Span.with_ ~name:"singletons.compute" (fun () ->
                  Singletons.compute prog ast tm icfg)
            in
            let warm = Option.bind warm (fun h -> h.wh_solve prog ast svfg ~singleton) in
            (singleton, Sparse.solve ?warm ?prov prog ast svfg ~singleton))
      in
      (match prov with
      | Some r -> Obs.Metrics.(set (gauge "prov.records") (Fsam_prov.n_records r))
      | None -> ());
      {
        prog;
        ast;
        modref;
        icfg;
        tm;
        mhp;
        locks;
        pcg;
        svfg;
        singleton;
        sparse;
        times =
          {
            t_pre = sp_pre.Obs.Span.dur_s;
            t_thread_model = sp_threads.Obs.Span.dur_s;
            t_interleaving = sp_mhp.Obs.Span.dur_s;
            t_lock = sp_lock.Obs.Span.dur_s;
            t_svfg = sp_svfg.Obs.Span.dur_s;
            t_solve = sp_solve.Obs.Span.dur_s;
          };
        prov;
      })

let run_nonsparse ?(config = default_config) prog =
  Validate.check_exn prog;
  Obs.Span.reset ();
  Obs.Metrics.reset ();
  let outcome, root =
    Obs.Span.with_timed ~name:"nonsparse.run" (fun () ->
        let t0 = Sys.time () in
        let (ast, icfg, pcg, singleton), _ =
          Obs.Span.with_timed ~name:"phase.pre" (fun () ->
              let ast = A.run prog in
              let icfg = Obs.Span.with_ ~name:"icfg.build" (fun () -> Mta.Icfg.build prog ast) in
              let tm =
                Obs.Span.with_ ~name:"threads.build" (fun () ->
                    Mta.Threads.build ~max_ctx_depth:config.max_ctx_depth prog ast icfg)
              in
              let pcg = Obs.Span.with_ ~name:"pcg.compute" (fun () -> Mta.Pcg.compute tm icfg) in
              let singleton =
                Obs.Span.with_ ~name:"singletons.compute" (fun () ->
                    Singletons.compute prog ast tm icfg)
              in
              (ast, icfg, pcg, singleton))
        in
        (* the OOT budget stays CPU-time based, like Nonsparse.solve itself *)
        let remaining = config.nonsparse_budget -. (Sys.time () -. t0) in
        if remaining <= 0. then
          (* don't silently hand the solver a token 0.1 s budget *)
          Format.eprintf
            "warning: nonsparse pre-phases alone consumed the %.0f s budget; the \
             solver will time out immediately — raise --nonsparse-budget@."
            config.nonsparse_budget;
        Obs.Span.with_ ~name:"nonsparse.solve" (fun () ->
            Nonsparse.solve ~budget_seconds:(max 0.1 remaining) prog ast icfg pcg ~singleton))
  in
  (outcome, root.Obs.Span.dur_s)

let pt t v = Sparse.pt_top t.sparse v

let pt_names t v =
  List.sort compare (List.map (Prog.obj_name t.prog) (Fsam_dsa.Iset.elements (pt t v)))

let alias t a b = not (Fsam_dsa.Iset.disjoint (pt t a) (pt t b))

let total_time t =
  t.times.t_pre +. t.times.t_thread_model +. t.times.t_interleaving +. t.times.t_lock
  +. t.times.t_svfg +. t.times.t_solve

let memory_entries t = Sparse.pts_entries t.sparse

let pp_summary ppf t =
  Format.fprintf ppf
    "@[<v>FSAM summary:@,\
    \  %a@,\
    \  %a@,\
    \  %a@,\
    \  %a@,\
     \  phases: pre %.3fs, threads %.3fs, mhp %.3fs, locks %.3fs, svfg %.3fs, solve %.3fs@]"
    A.pp_stats t.ast Mta.Threads.pp_stats t.tm Svfg.pp_stats t.svfg Sparse.pp_stats t.sparse
    t.times.t_pre t.times.t_thread_model t.times.t_interleaving t.times.t_lock t.times.t_svfg
    t.times.t_solve
