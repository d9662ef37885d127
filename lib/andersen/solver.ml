open Fsam_dsa
open Fsam_ir
module Obs = Fsam_obs

(* Constraint-graph nodes: top-level variables occupy ids [0, V); the cell of
   object [o] is node [V + o]. The object table grows as field objects are
   materialised, so all node-indexed state is growable. *)

type callsite = {
  cs_fid : int;
  cs_idx : int;
  cs_args : Stmt.var list;
  cs_ret : Stmt.var option;
  cs_fork : bool;
}

type t = {
  prog : Prog.t;
  nvars : int;
  prov : Fsam_prov.t option;
  uf : Uf.t;
  mutable pts : Iset.t array;
  mutable prop : Iset.t array; (* portion of pts already propagated *)
  mutable succs : Iset.t array; (* copy edges, stored on representatives *)
  loads : (int, Stmt.var list) Hashtbl.t;
  stores : (int, Stmt.var list) Hashtbl.t;
  geps : (int, (Stmt.var * string) list) Hashtbl.t;
  forks : (int, int list) Hashtbl.t; (* handle node -> fork ids *)
  icalls : (int, callsite list) Hashtbl.t;
  connected : (int * int * int, unit) Hashtbl.t; (* (cs_fid, cs_idx, callee) *)
  cg : Fsam_graph.Digraph.t; (* includes fork edges *)
  callee_tbl : (int * int, int list ref) Hashtbl.t; (* callsite -> callees *)
  fork_tgts : int list ref array; (* fork id -> start procs *)
  ret_tbl : Stmt.var list array; (* fid -> returned vars *)
  queue : int Queue.t;
  mutable in_queue : Bitvec.t;
  mutable iterations : int;
  mutable edges_since_collapse : int;
  mutable queue_peak : int;
  mutable copy_edges : int;
  mutable collapses : int;
}

let node_of_var _t v = v
let node_of_obj t o = t.nvars + o

let ensure t n =
  let len = Array.length t.pts in
  if n >= len then begin
    let cap = max (n + 1) (2 * len) in
    let grow a init =
      let b = Array.make cap init in
      Array.blit a 0 b 0 len;
      b
    in
    t.pts <- grow t.pts Iset.empty;
    t.prop <- grow t.prop Iset.empty;
    t.succs <- grow t.succs Iset.empty
  end

let rep t n =
  ensure t n;
  Uf.find t.uf n

let push t n =
  let n = rep t n in
  if Bitvec.set_if_unset t.in_queue n then begin
    Queue.add n t.queue;
    let depth = Queue.length t.queue in
    if depth > t.queue_peak then t.queue_peak <- depth
  end

(* [rt]/[rx] are the provenance reason tag and payload for any object that
   enters [pts n] through this call; plain ints so the disabled path stays
   allocation-free. *)
let add_pts t ~rt ~rx n set =
  let n = rep t n in
  let old = t.pts.(n) in
  let u = Iset.union old set in
  if not (u == old) then begin
    t.pts.(n) <- u;
    (match t.prov with
    | Some r ->
      Iset.iter
        (fun o ->
          if not (Iset.mem o old) then
            Fsam_prov.add r ~space:Fsam_prov.sp_avar ~k1:n ~k2:0 ~obj:o ~tag:rt ~x:rx ~y:0 ~z:0)
        set
    | None -> ());
    push t n
  end

(* Append to a node-keyed constraint table. *)
let tbl_add tbl n x =
  Hashtbl.replace tbl n (x :: Option.value ~default:[] (Hashtbl.find_opt tbl n))

let add_edge t u v =
  let u = rep t u and v = rep t v in
  if u <> v && not (Iset.mem v t.succs.(u)) then begin
    t.succs.(u) <- Iset.add v t.succs.(u);
    t.edges_since_collapse <- t.edges_since_collapse + 1;
    t.copy_edges <- t.copy_edges + 1;
    (* flow everything u already knows into v *)
    add_pts t ~rt:Fsam_prov.a_copy ~rx:u v t.pts.(u)
  end

let connect t cs callee =
  let key = (cs.cs_fid, cs.cs_idx, callee) in
  if not (Hashtbl.mem t.connected key) then begin
    Hashtbl.replace t.connected key ();
    (match Hashtbl.find_opt t.callee_tbl (cs.cs_fid, cs.cs_idx) with
    | Some l -> l := callee :: !l
    | None -> Hashtbl.replace t.callee_tbl (cs.cs_fid, cs.cs_idx) (ref [ callee ]));
    Fsam_graph.Digraph.add_edge t.cg cs.cs_fid callee;
    let f = Prog.func t.prog callee in
    let rec bind args params =
      match (args, params) with
      | a :: args, p :: params ->
        add_edge t (node_of_var t a) (node_of_var t p);
        bind args params
      | _ -> ()
    in
    bind cs.cs_args f.Func.params;
    (match cs.cs_ret with
    | Some r ->
      List.iter (fun rv -> add_edge t (node_of_var t rv) (node_of_var t r)) t.ret_tbl.(callee)
    | None -> ())
  end

let fork_of_stmt t cs fork_id callee =
  connect t cs callee;
  let l = t.fork_tgts.(fork_id) in
  if not (List.mem callee !l) then l := callee :: !l

(* Online cycle collapsing over the copy-edge graph. *)
let collapse t =
  t.collapses <- t.collapses + 1;
  let merged = Obs.Metrics.counter "andersen.pwc_merged_nodes" in
  (* each representative's successor representatives, ascending and without
     self-edges, so Tarjan visits (and merges) in node-id order *)
  let succs u =
    if Uf.find t.uf u <> u then []
    else
      List.sort_uniq compare
        (Iset.fold
           (fun v acc ->
             let v = Uf.find t.uf v in
             if v <> u then v :: acc else acc)
           t.succs.(u) [])
  in
  let r = Fsam_graph.Scc.compute ~n:(Array.length t.pts) ~succs in
  Array.iter
    (fun members ->
      match members with
      | [] | [ _ ] -> ()
      | first :: rest ->
        Obs.Metrics.add merged (List.length rest);
        let keep = Uf.find t.uf first in
        let merged_pts = ref t.pts.(keep) in
        let merged_succs = ref t.succs.(keep) in
        List.iter
          (fun m ->
            let m = Uf.find t.uf m in
            if m <> keep then begin
              (match t.prov with
              | Some r ->
                (* keep a bridge reason so chains recorded under the absorbed
                   node stay reachable from the surviving representative *)
                Iset.iter
                  (fun o ->
                    Fsam_prov.add r ~space:Fsam_prov.sp_avar ~k1:keep ~k2:0 ~obj:o
                      ~tag:Fsam_prov.a_merge ~x:m ~y:0 ~z:0)
                  t.pts.(m)
              | None -> ());
              merged_pts := Iset.union !merged_pts t.pts.(m);
              merged_succs := Iset.union !merged_succs t.succs.(m);
              (* move complex constraints onto the representative *)
              let move tbl =
                match Hashtbl.find_opt tbl m with
                | Some l ->
                  Hashtbl.remove tbl m;
                  List.iter (fun x -> tbl_add tbl keep x) l
                | None -> ()
              in
              move t.loads;
              move t.stores;
              move t.geps;
              move t.forks;
              move t.icalls;
              t.pts.(m) <- Iset.empty;
              t.prop.(m) <- Iset.empty;
              t.succs.(m) <- Iset.empty;
              ignore (Uf.union_to t.uf ~keep ~absorb:m)
            end)
          rest;
        t.pts.(keep) <- !merged_pts;
        (* conservatively forget propagation history of the merged node *)
        t.prop.(keep) <- Iset.empty;
        t.succs.(keep) <- Iset.remove keep !merged_succs;
        push t keep)
    r.Fsam_graph.Scc.comps;
  t.edges_since_collapse <- 0

let process t n =
  let n = rep t n in
  let delta = Iset.diff t.pts.(n) t.prop.(n) in
  if not (Iset.is_empty delta) then begin
    t.prop.(n) <- t.pts.(n);
    t.iterations <- t.iterations + 1;
    (* complex constraints *)
    (match Hashtbl.find_opt t.loads n with
    | Some dsts ->
      Iset.iter
        (fun o -> List.iter (fun p -> add_edge t (node_of_obj t o) (node_of_var t p)) dsts)
        delta
    | None -> ());
    (match Hashtbl.find_opt t.stores n with
    | Some srcs ->
      Iset.iter
        (fun o -> List.iter (fun q -> add_edge t (node_of_var t q) (node_of_obj t o)) srcs)
        delta
    | None -> ());
    (match Hashtbl.find_opt t.geps n with
    | Some gs ->
      Iset.iter
        (fun o ->
          let info = Prog.obj t.prog o in
          if not (Memobj.is_function info || Memobj.is_thread info) then
            List.iter
              (fun (p, field) ->
                let fld = Prog.field_obj t.prog ~base:o ~field in
                ensure t (node_of_obj t fld);
                add_pts t ~rt:Fsam_prov.a_gep ~rx:o (node_of_var t p) (Iset.singleton fld))
              gs)
        delta
    | None -> ());
    (match Hashtbl.find_opt t.forks n with
    | Some fork_ids ->
      Iset.iter
        (fun o ->
          List.iter
            (fun k ->
              let theta = Prog.thread_obj_of_fork t.prog k in
              add_pts t ~rt:Fsam_prov.a_fork ~rx:k (node_of_obj t o) (Iset.singleton theta))
            fork_ids)
        delta
    | None -> ());
    (match Hashtbl.find_opt t.icalls n with
    | Some css ->
      Iset.iter
        (fun o ->
          match (Prog.obj t.prog o).Memobj.kind with
          | Memobj.Func fid ->
            List.iter
              (fun cs ->
                if cs.cs_fork then begin
                  (* recover the fork id from the statement *)
                  match Func.stmt (Prog.func t.prog cs.cs_fid) cs.cs_idx with
                  | Stmt.Fork { fork_id; _ } -> fork_of_stmt t cs fork_id fid
                  | _ -> assert false
                end
                else connect t cs fid)
              css
          | _ -> ())
        delta
    | None -> ());
    (* copy edges (snapshot: Iset is persistent, so edges added during the
       complex phase above were already seeded with full pts at add time) *)
    Iset.iter (fun m -> add_pts t ~rt:Fsam_prov.a_copy ~rx:n m delta) t.succs.(n)
  end

let total_pts_size t =
  let total = ref 0 in
  Array.iteri
    (fun n s -> if Uf.find t.uf n = n then total := !total + Iset.cardinal s)
    t.pts;
  !total

let mk_state ?prov prog =
  let nvars = Prog.n_vars prog in
  let size = nvars + Prog.n_objs prog + 64 in
  let ret_tbl = Array.make (Prog.n_funcs prog) [] in
  Prog.iter_funcs prog (fun f ->
      let rets = ref [] in
      Func.iter_stmts f (fun _ s ->
          match s with Stmt.Return (Some v) -> rets := v :: !rets | _ -> ());
      ret_tbl.(f.Func.fid) <- !rets);
  let t =
    {
      prog;
      nvars;
      prov;
      uf = Uf.create size;
      pts = Array.make size Iset.empty;
      prop = Array.make size Iset.empty;
      succs = Array.make size Iset.empty;
      loads = Hashtbl.create 256;
      stores = Hashtbl.create 256;
      geps = Hashtbl.create 64;
      forks = Hashtbl.create 16;
      icalls = Hashtbl.create 64;
      connected = Hashtbl.create 64;
      cg = Fsam_graph.Digraph.create ~size_hint:(Prog.n_funcs prog) ();
      callee_tbl = Hashtbl.create 64;
      fork_tgts = Array.init (Prog.n_forks prog) (fun _ -> ref []);
      ret_tbl;
      queue = Queue.create ();
      in_queue = Bitvec.create ~capacity:size ();
      iterations = 0;
      edges_since_collapse = 0;
      queue_peak = 0;
      copy_edges = 0;
      collapses = 0;
    }
  in
  Fsam_graph.Digraph.ensure_node t.cg (Prog.n_funcs prog - 1);
  t

(* Register every statement's constraints. On a warm start the simple
   constraints are no-ops for clean nodes (their preloaded pts already
   contain the seeds, so no push happens), and the complex-constraint tables
   are rebuilt from scratch — retraction of a dirty function's constraints
   is implicit in re-deriving the tables from the *new* program. *)
let add_constraints t prog =
  let prov = t.prov in
  (* complex constraints live on representatives, where [process] looks
     them up: a warm start pre-unions surviving classes before this runs *)
  let key v = rep t (node_of_var t v) in
  Prog.iter_funcs prog (fun f ->
      let fid = f.Func.fid in
      Func.iter_stmts f (fun idx s ->
          match s with
          | Stmt.Addr_of { dst; obj } ->
            add_pts t ~rt:Fsam_prov.a_base
              ~rx:(match prov with Some _ -> Prog.gid prog ~fid ~idx | None -> 0)
              (node_of_var t dst) (Iset.singleton obj)
          | Stmt.Copy { dst; src } -> add_edge t (node_of_var t src) (node_of_var t dst)
          | Stmt.Phi { dst; srcs } ->
            List.iter (fun s -> add_edge t (node_of_var t s) (node_of_var t dst)) srcs
          | Stmt.Load { dst; src } -> tbl_add t.loads (key src) dst
          | Stmt.Store { dst; src } -> tbl_add t.stores (key dst) src
          | Stmt.Gep { dst; src; field } -> tbl_add t.geps (key src) (dst, field)
          | Stmt.Call { target; args; ret } -> (
            let cs =
              { cs_fid = fid; cs_idx = idx; cs_args = args; cs_ret = ret; cs_fork = false }
            in
            match target with
            | Stmt.Direct f -> connect t cs f
            | Stmt.Indirect v -> tbl_add t.icalls (key v) cs)
          | Stmt.Fork { handle; target; args; fork_id } -> (
            (match handle with
            | Some h -> tbl_add t.forks (key h) fork_id
            | None -> ());
            let cs =
              { cs_fid = fid; cs_idx = idx; cs_args = args; cs_ret = None; cs_fork = true }
            in
            match target with
            | Stmt.Direct f -> fork_of_stmt t cs fork_id f
            | Stmt.Indirect v -> tbl_add t.icalls (key v) cs)
          | Stmt.Return _ | Stmt.Join _ | Stmt.Lock _ | Stmt.Unlock _ | Stmt.Nop _ -> ()))

(* Fixpoint: waves of difference propagation punctuated by PWC/cycle
   collapsing passes whenever enough new copy edges accumulated. *)
let fixpoint t =
  let size = Array.length t.pts in
  let collapse_threshold = max 512 (size / 2) in
  Obs.Span.with_ ~name:"andersen.fixpoint" (fun () ->
      while not (Queue.is_empty t.queue) do
        let n = Queue.pop t.queue in
        Bitvec.clear t.in_queue n;
        process t n;
        if t.edges_since_collapse > collapse_threshold then
          Obs.Span.with_ ~name:"andersen.collapse" (fun () -> collapse t)
      done)

let flush_metrics t ~memo_hits0 ~memo_misses0 =
  Obs.Metrics.(add (counter "andersen.iterations") t.iterations);
  Obs.Metrics.(add (counter "andersen.copy_edges") t.copy_edges);
  Obs.Metrics.(add (counter "andersen.collapses") t.collapses);
  Obs.Metrics.(set_max (gauge "andersen.worklist_peak") t.queue_peak);
  let memo_hits1, memo_misses1 = Iset.union_memo_stats () in
  Obs.Metrics.(add (counter "iset.union_memo_hits") (memo_hits1 - memo_hits0));
  Obs.Metrics.(add (counter "iset.union_memo_misses") (memo_misses1 - memo_misses0));
  Obs.Metrics.(set (gauge "andersen.pts_entries") (total_pts_size t));
  Obs.Metrics.(set (gauge "andersen.objects") (Prog.n_objs t.prog))

let run ?prov prog =
  let memo_hits0, memo_misses0 = Iset.union_memo_stats () in
  let t = mk_state ?prov prog in
  Obs.Span.with_ ~name:"andersen.constraints" (fun () -> add_constraints t prog);
  fixpoint t;
  flush_metrics t ~memo_hits0 ~memo_misses0;
  t

(* Warm start ------------------------------------------------------------- *)

type warm_spec = {
  ws_old : t;  (** the previous generation's solved state *)
  ws_var_map : int array;  (** old var -> new var, [-1] when unmapped *)
  ws_dirty_fids : int list;  (** functions whose statements changed (fid-identical) *)
}

(* Re-solve the edited program starting from the previous fixpoint.

   The algorithm works by *affected closure* over the old solved state: a
   node is affected when some fact about it could have been derived through
   a constraint owned by a dirty function (so retraction may shrink it) or
   when new constraints can grow it through a complex-constraint trigger.
   Everything outside the closure keeps its old points-to set verbatim — the
   old fixpoint value is provably the new fixpoint value there — and only
   the closure is re-solved from bottom by the ordinary worklist.

   Closure roots (old space): every old variable with no counterpart in the
   new program, every variable referenced by a dirty function's old
   statements (plus its params), and the params of direct call/fork targets
   of dirty statements (their argument bindings are retracted). The closure
   then follows, over the *old* state: copy edges (which include derived
   load/store edges), load targets, stored-into / forked-into objects in the
   node's old pts, and the params/returns of indirect callees.

   Soundness of the preload: a clean node's old value can only be wrong if
   one of its (transitive) old derivations went through a retracted
   constraint — but every retracted constraint's node is a root, and every
   derivation step is covered by a closure rule, so the node would have been
   marked. Completeness: all constraints of the new program are re-added;
   clean-to-clean derived edges are replayed so later growth still flows;
   clean complex nodes with an affected output are re-enqueued ("frontier")
   so they re-derive edges into re-solved nodes. Affected nodes start empty
   and their full in-flows are regenerated, so the worklist reaches the
   least fixpoint of the new constraint system — byte-identical to cold
   (the serve differential mode certifies this on every edit).

   Returns [Error reason] when a precondition fails; the caller falls back
   to a cold run and counts the reason. *)
let run_warm prog ~warm =
  let old = warm.ws_old in
  let oldp = old.prog in
  if old.prov <> None then Error "andersen_provenance"
  else if Prog.n_funcs prog <> Prog.n_funcs oldp then Error "andersen_fn_count"
  else if Prog.n_vars oldp <> Array.length warm.ws_var_map then Error "andersen_var_map"
  else if Prog.n_objs prog <> Prog.n_objs oldp then
    (* also excludes old materialised field objects: a fresh lowering never
       has any, so differing counts mean the old run grew the object table
       in a way a cold run of the new program may renumber *)
    Error "andersen_obj_drift"
  else begin
    let objs_equal = ref true in
    Prog.iter_objs oldp (fun (o : Memobj.t) ->
        let o' = Prog.obj prog o.Memobj.id in
        if o <> o' then objs_equal := false);
    let forks_equal =
      Prog.n_forks prog = Prog.n_forks oldp
      && (let ok = ref true in
          for k = 0 to Prog.n_forks prog - 1 do
            if
              Prog.fork_site prog k <> Prog.fork_site oldp k
              || Prog.thread_obj_of_fork prog k <> Prog.thread_obj_of_fork oldp k
            then ok := false
          done;
          !ok)
    in
    if not !objs_equal then Error "andersen_obj_drift"
    else if not forks_equal then Error "andersen_fork_drift"
    else begin
      let memo_hits0, memo_misses0 = Iset.union_memo_stats () in
      (* everything between the old fixpoint and the new worklist drain:
         the affected closure, the new state, the preload, the edge replay
         and the frontier scan *)
      let t, n_preloaded, n_affected =
        Obs.Span.with_ ~name:"andersen.warm_seed" (fun () ->
            let old_size = Array.length old.pts in
            let old_rep n = Uf.find old.uf n in
            (* -- affected closure over the old state -- *)
            let marked = Bitvec.create ~capacity:old_size () in
            let cq = Queue.create () in
            let mark n =
              if n >= 0 && n < old_size then begin
                let r = old_rep n in
                if Bitvec.set_if_unset marked r then Queue.add r cq
              end
            in
            let mark_var v = mark v in
            let mark_obj o = mark (old.nvars + o) in
            (* roots *)
            Array.iteri (fun v nv -> if nv = -1 then mark_var v) warm.ws_var_map;
            List.iter
              (fun fid ->
                let f = Prog.func oldp fid in
                List.iter mark_var f.Func.params;
                Func.iter_stmts f (fun _ s ->
                    (match Stmt.def s with Some v -> mark_var v | None -> ());
                    List.iter mark_var (Stmt.uses s);
                    match s with
                    | Stmt.Call { target = Stmt.Direct g; _ }
                    | Stmt.Fork { target = Stmt.Direct g; _ } ->
                      List.iter mark_var (Prog.func oldp g).Func.params
                    | _ -> ()))
              warm.ws_dirty_fids;
            (* closure rules *)
            while not (Queue.is_empty cq) do
              let r = Queue.pop cq in
              Iset.iter mark old.succs.(r);
              (match Hashtbl.find_opt old.loads r with
              | Some dsts -> List.iter mark_var dsts
              | None -> ());
              (match Hashtbl.find_opt old.stores r with
              | Some _ -> Iset.iter mark_obj old.pts.(r)
              | None -> ());
              (match Hashtbl.find_opt old.geps r with
              | Some gs -> List.iter (fun (p, _) -> mark_var p) gs
              | None -> ());
              (match Hashtbl.find_opt old.forks r with
              | Some _ -> Iset.iter mark_obj old.pts.(r)
              | None -> ());
              match Hashtbl.find_opt old.icalls r with
              | Some css ->
                Iset.iter
                  (fun o ->
                    match (Prog.obj oldp o).Memobj.kind with
                    | Memobj.Func fid ->
                      List.iter mark_var (Prog.func oldp fid).Func.params;
                      List.iter mark_var old.ret_tbl.(fid)
                    | _ -> ())
                  old.pts.(r);
                List.iter (fun cs -> match cs.cs_ret with Some v -> mark_var v | None -> ()) css
              | None -> ()
            done;
            let aff_old n = Bitvec.get marked (old_rep n) in
            (* -- build the new state -- *)
            let t = mk_state prog in
            let nvars_new = t.nvars in
            let n_objs = Prog.n_objs prog in
            let img n =
              if n < old.nvars then warm.ws_var_map.(n) else nvars_new + (n - old.nvars)
            in
            (* pre-union surviving merged classes so their shared value is
               preloaded once at the surviving representative *)
            for n = 0 to old.nvars + n_objs - 1 do
              let r = old_rep n in
              if r <> n && not (Bitvec.get marked r) then begin
                let ik = img r and ia = img n in
                if ik >= 0 && ia >= 0 then ignore (Uf.union_to t.uf ~keep:ik ~absorb:ia)
              end
            done;
            (* preload clean values (object ids are identical across generations,
               so the old hash-consed sets are reused verbatim) *)
            let preloaded = ref 0 in
            let preload_new x px =
              if not (aff_old px) then begin
                let x' = Uf.find t.uf x in
                if Iset.is_empty t.pts.(x') then begin
                  let v = old.pts.(old_rep px) in
                  t.pts.(x') <- v;
                  t.prop.(x') <- v;
                  incr preloaded
                end
              end
            in
            let var_inv = Array.make nvars_new (-1) in
            Array.iteri
              (fun ov nv -> if nv >= 0 && nv < nvars_new then var_inv.(nv) <- ov)
              warm.ws_var_map;
            for x = 0 to nvars_new - 1 do
              let ov = var_inv.(x) in
              if ov >= 0 then preload_new x ov
            done;
            for o = 0 to n_objs - 1 do
              preload_new (nvars_new + o) (old.nvars + o)
            done;
            (* replay clean-to-clean copy edges (including derived load/store
               edges — a clean trigger justifies them in the new program too) *)
            for u = 0 to old_size - 1 do
              if old_rep u = u && not (Bitvec.get marked u) then
                Iset.iter
                  (fun v ->
                    if not (aff_old v) then begin
                      let iu = img u and iv = img v in
                      if iu >= 0 && iv >= 0 then begin
                        let iu = Uf.find t.uf iu and iv = Uf.find t.uf iv in
                        if iu <> iv then t.succs.(iu) <- Iset.add iv t.succs.(iu)
                      end
                    end)
                  old.succs.(u)
            done;
            (* all new-program constraints; no-op pushes on clean nodes *)
            Obs.Span.with_ ~name:"andersen.constraints" (fun () -> add_constraints t prog);
            (* clean indirect call/fork sites: either preseed their resolved
               bindings' bookkeeping, or — if any binding target was re-solved —
               re-enqueue the site so [process] re-derives the bindings *)
            let frontier = ref [] in
            let enqueue_frontier n =
              let x = img n in
              if x >= 0 then frontier := x :: !frontier
            in
            Hashtbl.iter
              (fun n css ->
                if not (Bitvec.get marked (old_rep n)) then begin
                  let bind_targets_clean =
                    (not
                       (Iset.exists
                          (fun o ->
                            match (Prog.obj oldp o).Memobj.kind with
                            | Memobj.Func fid ->
                              List.exists aff_old (Prog.func oldp fid).Func.params
                              || List.exists aff_old old.ret_tbl.(fid)
                            | _ -> false)
                          old.pts.(old_rep n)))
                    && not
                         (List.exists
                            (fun cs ->
                              match cs.cs_ret with Some v -> aff_old v | None -> false)
                            css)
                  in
                  if not bind_targets_clean then enqueue_frontier n
                  else
                    Iset.iter
                      (fun o ->
                        match (Prog.obj oldp o).Memobj.kind with
                        | Memobj.Func fid ->
                          List.iter
                            (fun cs ->
                              let key = (cs.cs_fid, cs.cs_idx, fid) in
                              if not (Hashtbl.mem t.connected key) then begin
                                Hashtbl.replace t.connected key ();
                                (match Hashtbl.find_opt t.callee_tbl (cs.cs_fid, cs.cs_idx) with
                                | Some l -> l := fid :: !l
                                | None ->
                                  Hashtbl.replace t.callee_tbl (cs.cs_fid, cs.cs_idx)
                                    (ref [ fid ]));
                                Fsam_graph.Digraph.add_edge t.cg cs.cs_fid fid;
                                if cs.cs_fork then begin
                                  match Func.stmt (Prog.func prog cs.cs_fid) cs.cs_idx with
                                  | Stmt.Fork { fork_id; _ } ->
                                    let l = t.fork_tgts.(fork_id) in
                                    if not (List.mem fid !l) then l := fid :: !l
                                  | _ -> ()
                                end
                              end)
                            css
                        | _ -> ())
                      old.pts.(old_rep n)
                end)
              old.icalls;
            (* clean complex nodes whose outputs were re-solved must re-derive
               the edges into them *)
            let check_outputs tbl outputs_affected =
              Hashtbl.iter
                (fun n x ->
                  if not (Bitvec.get marked (old_rep n)) && outputs_affected n x then
                    enqueue_frontier n)
                tbl
            in
            check_outputs old.loads (fun _ dsts -> List.exists aff_old dsts);
            check_outputs old.stores (fun n _ ->
                Iset.exists (fun o -> aff_old (old.nvars + o)) old.pts.(old_rep n));
            check_outputs old.geps (fun _ gs -> List.exists (fun (p, _) -> aff_old p) gs);
            check_outputs old.forks (fun n _ ->
                Iset.exists (fun o -> aff_old (old.nvars + o)) old.pts.(old_rep n));
            List.iter
              (fun x ->
                let x = rep t x in
                t.prop.(x) <- Iset.empty;
                push t x)
              !frontier;
            (t, !preloaded, Bitvec.cardinal marked))
      in
      fixpoint t;
      Obs.Metrics.(add (counter "andersen.warm_runs") 1);
      Obs.Metrics.(set (gauge "andersen.warm_preloaded") n_preloaded);
      Obs.Metrics.(set (gauge "andersen.warm_affected") n_affected);
      flush_metrics t ~memo_hits0 ~memo_misses0;
      Ok t
    end
  end

(* Queries ----------------------------------------------------------------- *)

let pt_var t v = t.pts.(rep t (node_of_var t v))
let pt_obj t o = t.pts.(rep t (node_of_obj t o))
let alias_targets t p q = Iset.inter (pt_var t p) (pt_var t q)

(* [callees]/[fork_targets] sort so the answer is canonical: a warm start
   reseeds the callee bookkeeping in a different order than cold on-the-fly
   discovery, and downstream consumers (thread discovery, SVFG call linking)
   must not observe the difference. *)
let callees t ~fid ~idx =
  match Hashtbl.find_opt t.callee_tbl (fid, idx) with
  | Some l -> List.sort_uniq compare !l
  | None -> []

let call_graph t = t.cg
let fork_targets t k = List.sort_uniq compare !(t.fork_tgts.(k))

let join_threads t ~fid ~idx =
  match Func.stmt (Prog.func t.prog fid) idx with
  | Stmt.Join { handle } ->
    let acc = ref [] in
    Iset.iter
      (fun o ->
        Iset.iter
          (fun o' ->
            match Prog.fork_of_thread_obj t.prog o' with
            | Some k -> if not (List.mem k !acc) then acc := k :: !acc
            | None -> ())
          (pt_obj t o))
      (pt_var t handle);
    List.sort compare !acc
  | _ -> []

let ret_vars t f = t.ret_tbl.(f)

let reachable_funcs t =
  Fsam_graph.Reach.from ~n:(Fsam_graph.Digraph.n_nodes t.cg) ~succs:(Fsam_graph.Digraph.succs t.cg)
    (Prog.main_fid t.prog)

let n_solver_iterations t = t.iterations

(* Provenance queries ------------------------------------------------------ *)

let prov_recorder t = t.prov
let prov_node_of_var t v = rep t (node_of_var t v)
let prov_node_of_obj t o = rep t (node_of_obj t o)
let prov_var_of_node t n = if n < t.nvars then Some n else None
let prov_obj_of_node t n = if n >= t.nvars then Some (n - t.nvars) else None

let prov_find t ~node ~obj =
  match t.prov with
  | None -> None
  | Some r -> (
    (* reasons are keyed by the representative at record time; try the node
       itself first (pre-merge records survive), then today's rep *)
    match Fsam_prov.find r ~space:Fsam_prov.sp_avar ~k1:node ~k2:0 ~obj with
    | Some _ as res -> res
    | None ->
      let n' = rep t node in
      if n' = node then None
      else Fsam_prov.find r ~space:Fsam_prov.sp_avar ~k1:n' ~k2:0 ~obj)

let pp_stats ppf t =
  Format.fprintf ppf "andersen: %d iterations, %d pts entries, %d objects"
    t.iterations (total_pts_size t) (Prog.n_objs t.prog)
