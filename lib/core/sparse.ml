open Fsam_dsa
open Fsam_ir
module A = Fsam_andersen.Solver
module Svfg = Fsam_memssa.Svfg
module Obs = Fsam_obs

type t = {
  prog : Prog.t;
  svfg : Svfg.t;
  ptv : Iset.t array;
  pto : (int * int, Iset.t) Hashtbl.t; (* (svfg node, obj) -> contents *)
  obj_any : (int, Iset.t) Hashtbl.t; (* obj -> union of contents over all nodes *)
  mutable iterations : int;
  mutable strong_updates : int; (* store-processing events that killed *)
  mutable weak_updates : int;
  mutable growth : int; (* add events that enlarged a set during the drain *)
}

let pt_top t v = t.ptv.(v)

let pto_get t node o = Option.value ~default:Iset.empty (Hashtbl.find_opt t.pto (node, o))

let pt_at_store t gid o =
  match Svfg.node_id t.svfg (Svfg.Stmt_node gid) with
  | Some n -> pto_get t n o
  | None -> Iset.empty

(* Served from the accumulator maintained by [add_obj]: facts only grow, so
   the running union equals the fold over the whole [pto] table that the
   soundness harnesses would otherwise pay per query. *)
let pt_obj_anywhere t o =
  Option.value ~default:Iset.empty (Hashtbl.find_opt t.obj_any o)

let iter_pto t f = Hashtbl.iter (fun (node, o) s -> f ~node ~obj:o s) t.pto

let n_iterations t = t.iterations
let n_strong_updates t = t.strong_updates
let n_weak_updates t = t.weak_updates
let n_growth t = t.growth

let pts_entries t =
  Array.fold_left (fun acc s -> acc + Iset.cardinal s) 0 t.ptv
  + Hashtbl.fold (fun _ s acc -> acc + Iset.cardinal s) t.pto 0

(* -- the unit universe and its dependency structure ------------------------ *)
(* Work units: statement gids in [0, n_stmts), then non-statement SVFG nodes
   at [n_stmts + node_id]. Exposed so the incremental engine (lib/serve) can
   compute dirty closures over exactly the graph the drain propagates on. *)

let unit_of_svfg_node prog svfg n =
  match Svfg.node svfg n with
  | Svfg.Stmt_node g -> g
  | _ -> Prog.n_stmts prog + n

let unit_count prog svfg = Prog.n_stmts prog + Svfg.n_nodes svfg

(* statement nodes share their gid's unit, so they add no unit of their own *)
let all_units prog svfg =
  let units = ref [] in
  for n = Svfg.n_nodes svfg - 1 downto 0 do
    match Svfg.node svfg n with
    | Svfg.Stmt_node _ -> ()
    | _ -> units := unit_of_svfg_node prog svfg n :: !units
  done;
  List.init (Prog.n_stmts prog) Fun.id @ !units

type deps = { d_defs : int list array; d_users : int list array }

(* A statement using a variable twice (store p p, phi with repeated
   sources, a call passing one pointer to two parameters) must still be
   reprocessed once per growth: occurrences land consecutively, so a
   head check dedupes them at index time. *)
let compute_deps prog ast =
  let d_users = Array.make (Prog.n_vars prog) [] in
  let d_defs = Array.make (Prog.n_vars prog) [] in
  let add arr v gid =
    match arr.(v) with g :: _ when g = gid -> () | l -> arr.(v) <- gid :: l
  in
  Prog.iter_funcs prog (fun f ->
      Func.iter_stmts f (fun i s ->
          let gid = Prog.gid prog ~fid:f.Func.fid ~idx:i in
          List.iter (fun v -> add d_users v gid) (Stmt.uses s);
          (match Stmt.def s with Some v -> add d_defs v gid | None -> ());
          (* a call's result depends on the callees' returned variables;
             calls and forks bind actuals to the callees' formals, so the
             callsite acts as a def of those variables too *)
          match s with
          | Stmt.Call { args; ret; _ } ->
            List.iter
              (fun callee ->
                (if ret <> None then
                   List.iter (fun rv -> add d_users rv gid) (A.ret_vars ast callee));
                let fn = Prog.func prog callee in
                let rec bind args params =
                  match (args, params) with
                  | _ :: args, p :: params ->
                    add d_defs p gid;
                    bind args params
                  | _ -> ()
                in
                bind args fn.Func.params)
              (A.callees ast ~fid:f.Func.fid ~idx:i)
          | Stmt.Fork { args; _ } ->
            List.iter
              (fun callee ->
                let fn = Prog.func prog callee in
                let rec bind args params =
                  match (args, params) with
                  | _ :: args, p :: params ->
                    add d_defs p gid;
                    bind args params
                  | _ -> ()
                in
                bind args fn.Func.params)
              (A.callees ast ~fid:f.Func.fid ~idx:i)
          | _ -> ()));
  { d_defs; d_users }

(* the dependency graph: an edge u -> w whenever processing u can enqueue w,
   i.e. u defines a top-level var w uses (including the param/return
   bindings performed at call and fork sites) or a points-to fact generated
   at u flows to w along an SVFG edge *)
let dep_graph prog svfg { d_defs; d_users } =
  let n_units = unit_count prog svfg in
  let dep = Fsam_graph.Digraph.create ~size_hint:n_units () in
  if n_units > 0 then Fsam_graph.Digraph.ensure_node dep (n_units - 1);
  Array.iteri
    (fun v defs ->
      match d_users.(v) with
      | [] -> ()
      | users ->
        List.iter
          (fun d -> List.iter (fun u -> Fsam_graph.Digraph.add_edge dep d u) users)
          defs)
    d_defs;
  Svfg.iter_nodes svfg (fun n _ ->
      let src = unit_of_svfg_node prog svfg n in
      List.iter
        (fun (_, dst) ->
          Fsam_graph.Digraph.add_edge dep src (unit_of_svfg_node prog svfg dst))
        (Svfg.o_succs svfg n));
  dep

type warm = {
  w_ptv : Iset.t array;
  w_pto : ((int * int) * Iset.t) list;
  w_units : int list;
}

let solve ?warm ?prov prog ast svfg ~singleton =
  let n_stmts = Prog.n_stmts prog in
  let memo_hits0, memo_misses0 = Iset.union_memo_stats () in
  let t =
    {
      prog;
      svfg;
      ptv = Array.make (Prog.n_vars prog) Iset.empty;
      pto = Hashtbl.create 4096;
      obj_any = Hashtbl.create 256;
      iterations = 0;
      strong_updates = 0;
      weak_updates = 0;
      growth = 0;
    }
  in
  (* Warm start: pre-load facts proven to match the least fixpoint (the
     incremental engine's clean slice). The drain below then seeds only
     [w_units]; the monotone transfer functions grow the pre-loaded state
     exactly as a cold run would have, reaching the same unique fixpoint. *)
  (match warm with
  | None -> ()
  | Some w ->
    Array.blit w.w_ptv 0 t.ptv 0 (min (Array.length w.w_ptv) (Array.length t.ptv));
    List.iter
      (fun ((node, o), set) ->
        if not (Iset.is_empty set) then begin
          Hashtbl.replace t.pto (node, o) set;
          let any = Option.value ~default:Iset.empty (Hashtbl.find_opt t.obj_any o) in
          Hashtbl.replace t.obj_any o (Iset.union any set)
        end)
      w.w_pto);
  let unit_of_node n = unit_of_svfg_node prog svfg n in
  let n_units = unit_count prog svfg in
  let { d_users = var_users; _ } =
    Obs.Span.with_ ~name:"sparse.index" (fun () -> compute_deps prog ast)
  in
  let queue = Queue.create () in
  let queued = Bitvec.create ~capacity:n_units () in
  let peak = ref 0 in
  (* facts-growth events: each add_var/add_obj call that enlarged a set.
     The convergence monitor's progress signal — cheap (one incr on the
     growth path), monotone, and zero across an interval exactly when the
     solver churned without learning anything. *)
  let facts = ref 0 in
  let push u =
    if Bitvec.set_if_unset queued u then begin
      Queue.add u queue;
      let d = Queue.length queue in
      if d > !peak then peak := d
    end
  in
  (* [rt]/[rx]/[ry]/[rz] are the provenance reason tag and payload for any
     object entering the set through this call; plain ints so the disabled
     path stays allocation-free. *)
  let add_var ~rt ~rx ~ry ~rz v set =
    let old = t.ptv.(v) in
    let u = Iset.union old set in
    if not (u == old) then begin
      incr facts;
      t.ptv.(v) <- u;
      (match prov with
      | Some r ->
        Iset.iter
          (fun o ->
            if not (Iset.mem o old) then
              Fsam_prov.add r ~space:Fsam_prov.sp_var ~k1:v ~k2:0 ~obj:o ~tag:rt ~x:rx ~y:ry
                ~z:rz)
          set
      | None -> ());
      List.iter push var_users.(v)
    end
  in
  let add_obj ~rt ~rx ~ry node o set =
    let cur = pto_get t node o in
    let u = Iset.union cur set in
    if not (u == cur) then begin
      incr facts;
      Hashtbl.replace t.pto (node, o) u;
      (match prov with
      | Some r ->
        Iset.iter
          (fun tgt ->
            if not (Iset.mem tgt cur) then
              Fsam_prov.add r ~space:Fsam_prov.sp_mem ~k1:node ~k2:o ~obj:tgt ~tag:rt ~x:rx
                ~y:ry ~z:0)
          set
      | None -> ());
      let any = Option.value ~default:Iset.empty (Hashtbl.find_opt t.obj_any o) in
      Hashtbl.replace t.obj_any o (Iset.union any u);
      List.iter
        (fun (o', dst) -> if o' = o then push (unit_of_node dst))
        (Svfg.o_succs svfg node)
    end
  in
  let stmt_node gid = Svfg.node_id svfg (Svfg.Stmt_node gid) in
  let bind_call gid fid idx args ret =
    List.iter
      (fun callee ->
        let f = Prog.func prog callee in
        let rec go args params =
          match (args, params) with
          | a :: args, p :: params ->
            add_var ~rt:Fsam_prov.s_bind ~rx:a ~ry:gid ~rz:0 p t.ptv.(a);
            go args params
          | _ -> ()
        in
        go args f.Func.params;
        match ret with
        | Some r ->
          List.iter
            (fun rv -> add_var ~rt:Fsam_prov.s_bind ~rx:rv ~ry:gid ~rz:0 r t.ptv.(rv))
            (A.ret_vars ast callee)
        | None -> ())
      (A.callees ast ~fid ~idx)
  in
  let process gid =
    let fid, idx = Prog.of_gid prog gid in
    match Prog.stmt_at prog gid with
    | Stmt.Addr_of { dst; obj } ->
      add_var ~rt:Fsam_prov.s_addr ~rx:gid ~ry:0 ~rz:0 dst (Iset.singleton obj)
    | Stmt.Copy { dst; src } ->
      add_var ~rt:Fsam_prov.s_copy ~rx:src ~ry:gid ~rz:0 dst t.ptv.(src)
    | Stmt.Phi { dst; srcs } ->
      List.iter (fun s -> add_var ~rt:Fsam_prov.s_phi ~rx:s ~ry:gid ~rz:0 dst t.ptv.(s)) srcs
    | Stmt.Gep { dst; src; field } ->
      Iset.iter
        (fun o ->
          let info = Prog.obj prog o in
          if not (Fsam_ir.Memobj.is_function info || Fsam_ir.Memobj.is_thread info) then
            add_var ~rt:Fsam_prov.s_gep ~rx:o ~ry:gid ~rz:0 dst
              (Iset.singleton (Prog.field_obj prog ~base:o ~field)))
        t.ptv.(src)
    | Stmt.Load { dst; src } -> (
      match stmt_node gid with
      | None -> ()
      | Some node ->
        let pts = t.ptv.(src) in
        List.iter
          (fun (o, d) ->
            if Iset.mem o pts then
              add_var ~rt:Fsam_prov.s_load ~rx:gid ~ry:d ~rz:o dst (pto_get t d o))
          (Svfg.o_preds svfg node))
    | Stmt.Store { dst; src } -> (
      match stmt_node gid with
      | None -> ()
      | Some node ->
        let targets = t.ptv.(dst) in
        Iset.iter (fun o -> add_obj ~rt:Fsam_prov.m_store ~rx:src ~ry:gid node o t.ptv.(src)) targets;
        (* kill(s, p) of Figure 10, decided once per store processing: the
           verdict depends only on pt(p) and the store's racy objects, not
           on the incoming def edge. One deviation: the paper kills
           everything when pt(p) = ∅ (a C null store is undefined
           behaviour); our IR defines a null store as a no-op, so incoming
           values pass through — anything else would be unsound against the
           interpreter's semantics. *)
        let killed =
          match Iset.as_singleton targets with
          | Some o' when singleton o' && not (Iset.mem o' (Svfg.racy_objs svfg gid)) ->
            o'
          | _ -> -1
        in
        (* replace semantics: the verdict of the final (sound) processing of
           this store is the one the explain layer reports *)
        (match prov with
        | Some r ->
          Fsam_prov.set r ~space:Fsam_prov.sp_store ~k1:gid ~k2:0 ~obj:0
            ~tag:(if killed >= 0 then Fsam_prov.u_strong else Fsam_prov.u_weak)
            ~x:killed ~y:0 ~z:0
        | None -> ());
        List.iter
          (fun (o, d) ->
            if o = killed then t.strong_updates <- t.strong_updates + 1
            else begin
              t.weak_updates <- t.weak_updates + 1;
              add_obj ~rt:Fsam_prov.m_edge ~rx:d ~ry:0 node o (pto_get t d o)
            end)
          (Svfg.o_preds svfg node))
    | Stmt.Call { args; ret; _ } -> bind_call gid fid idx args ret
    | Stmt.Fork { handle; args; fork_id; _ } -> (
      bind_call gid fid idx args None;
      match (handle, stmt_node gid) with
      | Some h, Some node ->
        let theta = Prog.thread_obj_of_fork prog fork_id in
        Iset.iter
          (fun o -> add_obj ~rt:Fsam_prov.m_fork ~rx:gid ~ry:0 node o (Iset.singleton theta))
          t.ptv.(h);
        (* weak: old handle contents survive *)
        List.iter
          (fun (o, d) -> add_obj ~rt:Fsam_prov.m_edge ~rx:d ~ry:0 node o (pto_get t d o))
          (Svfg.o_preds svfg node)
      | _ -> ())
    | Stmt.Return _ | Stmt.Join _ | Stmt.Lock _ | Stmt.Unlock _ | Stmt.Nop _ -> ()
  in
  let process_node n =
    (* pure merge nodes: one object each *)
    let o =
      match Svfg.node svfg n with
      | Svfg.Formal_in (_, o) | Svfg.Formal_out (_, o) | Svfg.Call_chi (_, o) -> o
      | Svfg.Stmt_node _ -> assert false
    in
    List.iter
      (fun (o', d) -> if o' = o then add_obj ~rt:Fsam_prov.m_edge ~rx:d ~ry:0 n o (pto_get t d o))
      (Svfg.o_preds svfg n)
  in
  (* Convergence monitor (profiling only): every [sample_interval]
     propagations, record worklist depth, cumulative facts and the
     per-interval delta, and union-memo hit/miss deltas. [stall_after]
     consecutive zero-growth samples raise one structured stall warning;
     the streak keeps counting so a single long stall warns once. *)
  let profiling = Obs.Profile.enabled () in
  let sample_interval = 512 in
  if profiling then Obs.Profile.set_sample_interval sample_interval;
  let mon_facts = ref 0 and mon_hits = ref memo_hits0 and mon_misses = ref memo_misses0 in
  let mon_streak = ref 0 in
  let stall_after = 8 in
  let monitor () =
    if t.iterations land (sample_interval - 1) = 0 then begin
      let hits, misses = Iset.union_memo_stats () in
      let delta = !facts - !mon_facts in
      Obs.Profile.add_sample
        {
          Obs.Profile.s_prop = t.iterations;
          s_depth = Queue.length queue;
          s_facts = !facts;
          s_facts_delta = delta;
          s_memo_hits = hits - !mon_hits;
          s_memo_misses = misses - !mon_misses;
        };
      mon_facts := !facts;
      mon_hits := hits;
      mon_misses := misses;
      if delta = 0 then begin
        incr mon_streak;
        if !mon_streak = stall_after then begin
          Obs.Profile.add_stall
            { Obs.Profile.st_prop = t.iterations; st_samples = !mon_streak };
          Obs.Metrics.(add (counter "sparse.stall_warnings") 1)
        end
      end
      else mon_streak := 0
    end
  in
  (* worklist drain, including the strong/weak update loop inside stores *)
  let seen = Bitvec.create ~capacity:n_units () in
  let reprocessed = ref 0 in
  let step u =
    Bitvec.clear queued u;
    t.iterations <- t.iterations + 1;
    if not (Bitvec.set_if_unset seen u) then incr reprocessed;
    if u < n_stmts then process u else process_node (u - n_stmts);
    if profiling then monitor ()
  in
  Obs.Span.with_ ~name:"sparse.drain" (fun () ->
      (match warm with
      | None ->
        for g = 0 to n_stmts - 1 do
          push g
        done
      | Some w -> List.iter push w.w_units);
      while not (Queue.is_empty queue) do
        step (Queue.pop queue)
      done);
  t.growth <- !facts;
  Obs.Metrics.(add (counter "sparse.propagations") t.iterations);
  Obs.Metrics.(add (counter "sparse.reprocessed") !reprocessed);
  Obs.Metrics.(add (counter "sparse.strong_updates") t.strong_updates);
  Obs.Metrics.(add (counter "sparse.weak_updates") t.weak_updates);
  Obs.Metrics.(set_max (gauge "sparse.worklist_peak") !peak);
  Obs.Metrics.(set (gauge "sparse.pts_entries") (pts_entries t));
  let memo_hits1, memo_misses1 = Iset.union_memo_stats () in
  Obs.Metrics.(add (counter "iset.union_memo_hits") (memo_hits1 - memo_hits0));
  Obs.Metrics.(add (counter "iset.union_memo_misses") (memo_misses1 - memo_misses0));
  Obs.Metrics.(set (gauge "iset.live_nodes") (Iset.live_nodes ()));
  Obs.Metrics.(set_max (gauge "heap.top_words") (Gc.quick_stat ()).Gc.top_heap_words);
  (* points-to set size distribution over all non-empty locations *)
  let histo = Obs.Metrics.histogram "sparse.pts_set_size" in
  Array.iter
    (fun s -> if not (Iset.is_empty s) then Obs.Metrics.observe histo (Iset.cardinal s))
    t.ptv;
  Hashtbl.iter
    (fun _ s -> if not (Iset.is_empty s) then Obs.Metrics.observe histo (Iset.cardinal s))
    t.pto;
  t

let pp_stats ppf t =
  Format.fprintf ppf "sparse: %d iterations, %d pts entries" t.iterations (pts_entries t)
