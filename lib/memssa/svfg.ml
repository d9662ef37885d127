open Fsam_dsa
open Fsam_ir
module A = Fsam_andersen.Solver
module Modref = Fsam_andersen.Modref
module Mta = Fsam_mta
module Obs = Fsam_obs

type node =
  | Stmt_node of int
  | Formal_in of int * int
  | Formal_out of int * int
  | Call_chi of int * int

type config = { use_interleaving : bool; use_value_flow : bool; use_lock : bool }

let default_config = { use_interleaving = true; use_value_flow = true; use_lock = true }

(* Provenance edge kinds (recorded only when a recorder is attached). *)
let k_oblivious = 0
let k_fork_bypass = 1
let k_join = 2
let k_thread_vf = 3

type t = {
  mutable prog : Prog.t;
  nodes : node Vec.t;
  index : (node, int) Hashtbl.t;
  preds : (int * int) list Vec.t;
  succs : (int * int) list Vec.t;
  edges : (int * int * int, int) Hashtbl.t;
      (* (src, obj, dst) -> its tag (see [tag]); the same edges as the
         adjacency lists, kept as a table because [add_edge] deduplicates
         every derived def on every dataflow revisit *)
  mutable thread_edges : int;
  racy : (int, Iset.t) Hashtbl.t; (* store gid -> objects with interfering MHP pairs *)
  pairs : (int, int array) Hashtbl.t;
      (* object -> its unprotected kept [THREAD-VF] pairs, each packed
         [store * n_stmts + access]; rows are replaced, never mutated *)
  mutable record_prov : Fsam_prov.t option;
  (* -- incremental-patch bookkeeping (see [patch]) -- *)
  mutable cur_owner : int; (* function being rebuilt by [build_oblivious], or -1 *)
  mutable log_adds : bool; (* patch mode: log every new edge *)
  mutable add_log : (int * int * int) list;
}

(* An edge's tag packs [owner lsl 2 lor kind]. The owner of an oblivious
   edge is the function whose per-fn dataflow first derived it (only
   [Formal_out -> Formal_in] triples can have further adders, handled by
   the patcher's dirty closure); a [THREAD-VF] edge has kind [k_thread_vf]
   and no owner. The other non-oblivious kinds are derived only under a
   recorder. *)
let tag ~owner kind = (owner lsl 2) lor kind
let tag_kind tg = tg land 3
let tag_owner tg = tg asr 2
let is_thread_vf tg = tag_kind tg = k_thread_vf

let n_nodes t = Vec.length t.nodes
let node t i = Vec.get t.nodes i
let node_id t n = Hashtbl.find_opt t.index n
let o_preds t i = Vec.get t.preds i
let o_succs t i = Vec.get t.succs i
let n_edges t = Hashtbl.length t.edges
let n_thread_aware_edges t = t.thread_edges
let prog t = t.prog
let iter_nodes t f = Vec.iteri (fun i n -> f i n) t.nodes

let intern t n =
  match Hashtbl.find_opt t.index n with
  | Some i -> i
  | None ->
    let i = Vec.push t.nodes n in
    ignore (Vec.push t.preds []);
    ignore (Vec.push t.succs []);
    Hashtbl.replace t.index n i;
    i

let add_edge ?(kind = k_oblivious) t src obj dst =
  let key = (src, obj, dst) in
  match Hashtbl.find t.edges key with
  | exception Not_found ->
    Hashtbl.replace t.edges key (tag ~owner:t.cur_owner kind);
    if t.log_adds then t.add_log <- key :: t.add_log;
    Vec.set t.preds dst ((obj, src) :: Vec.get t.preds dst);
    Vec.set t.succs src ((obj, dst) :: Vec.get t.succs src)
  | tg ->
    if t.log_adds && t.cur_owner >= 0 && is_thread_vf tg then begin
      (* promotion: a patched per-fn dataflow re-derives an edge that the
         old generation carried only as a [THREAD-VF] edge. A cold build
         would have added it in the oblivious stage, so reclassify it — it
         gains an owner and counts as an oblivious addition (the add log
         feeds the dirty-object computation). *)
      Hashtbl.replace t.edges key (tag ~owner:t.cur_owner k_oblivious);
      t.thread_edges <- t.thread_edges - 1;
      t.add_log <- key :: t.add_log
    end

let has_edge t src obj dst = Hashtbl.mem t.edges (src, obj, dst)

let edge_kind t ~src ~obj ~dst =
  match (t.record_prov, Hashtbl.find_opt t.edges (src, obj, dst)) with
  | Some _, Some tg -> tag_kind tg
  | _ -> k_oblivious

(* ------------------------------------------------------------------------ *)
(* Thread-oblivious construction: per-(function, object) sparse
   reaching-definitions over the function's CFG.                             *)
(* ------------------------------------------------------------------------ *)

(* What a handled join (or symmetric-loop exit) makes visible: per gid, the
   joined threads' (fork gid, start fn, start-fn mods). *)
let join_info_tbl tm mr =
  let tbl : (int, (int * int * Iset.t) list) Hashtbl.t = Hashtbl.create 16 in
  for iid = 0 to Mta.Threads.n_insts tm - 1 do
    match Mta.Threads.join_kills tm iid with
    | [] -> ()
    | kills ->
      let gid = (Mta.Threads.inst tm iid).Mta.Threads.i_gid in
      let cur = ref (Option.value ~default:[] (Hashtbl.find_opt tbl gid)) in
      List.iter
        (fun tid ->
          match Mta.Threads.fork_gid_of tm tid with
          | None -> ()
          | Some fg ->
            List.iter
              (fun sf ->
                if not (List.exists (fun (fg', sf', _) -> fg' = fg && sf' = sf) !cur)
                then cur := (fg, sf, Modref.mod_of mr sf) :: !cur)
              (Mta.Threads.start_fns tm tid))
        kills;
      Hashtbl.replace tbl gid !cur
  done;
  tbl

(* Per-(function, object) sparse reaching-definitions.

   The data-flow state at a program point is a set of channels of def nodes:
   channel 0 holds the ordinary reaching defs; one extra channel per fork
   statement of the function holds the {e bypass} defs — values that reached
   the fork and may still be current because the spawnee "may be executed
   nondeterministically later" (paper §3.2 step 2). A fork's callsite chi is
   {e strong} (sourced from the spawnee's formal-out only) and the pre-fork
   defs move to the fork's bypass channel; a handled join injects the
   spawnee's formal-out into the ordinary channel and kills the matching
   bypass channel — this reproduces both the fork-bypass edge s1 ↪ s2 and
   the join edge s4 ↪ s3 of Figure 6 {e and} the strong-update-through-join
   precision of Figure 1(c), while defs between fork and join still flow
   past the join (s2 ↪ s3). *)
let build_oblivious ?only t ast mr join_info =
  let prog = t.prog in
  let record = t.record_prov <> None in
  (* formal-out nodes injected by a handled join: edges sourced from them
     carry the "join" kind in provenance mode *)
  let join_src : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  Prog.iter_funcs prog (fun f ->
      let fid = f.Func.fid in
      if (match only with Some p -> p fid | None -> true) then begin
      (* every edge this per-fn dataflow derives is owned by [fid]; the
         incremental patcher retracts a function's edges by owner *)
      t.cur_owner <- fid;
      let objs = Iset.union (Modref.mod_of mr fid) (Modref.ref_of mr fid) in
      let n = Func.n_stmts f in
      (* channels: 0 = ordinary defs, 1 + k = bypass of the k-th local fork *)
      let fork_channel = Hashtbl.create 4 in
      let n_forks = ref 0 in
      Func.iter_stmts f (fun i s ->
          match s with
          | Stmt.Fork _ ->
            incr n_forks;
            Hashtbl.replace fork_channel (Prog.gid prog ~fid ~idx:i) !n_forks
          | _ -> ());
      let nchan = 1 + !n_forks in
      Iset.iter
        (fun o ->
          let out = Array.make n [||] in
          let empty_state = Array.make nchan Iset.empty in
          let formal_in = intern t (Formal_in (fid, o)) in
          let queue = Queue.create () in
          let queued = Bitvec.create ~capacity:n () in
          let push i = if Bitvec.set_if_unset queued i then Queue.add i queue in
          push 0;
          while not (Queue.is_empty queue) do
            let i = Queue.pop queue in
            Bitvec.clear queued i;
            let in_state = Array.copy empty_state in
            List.iter
              (fun p ->
                if out.(p) <> [||] then
                  Array.iteri (fun c s -> in_state.(c) <- Iset.union in_state.(c) s) out.(p))
              f.Func.pred.(i);
            if i = 0 then in_state.(0) <- Iset.add formal_in in_state.(0);
            let gid = Prog.gid prog ~fid ~idx:i in
            let all_defs = Array.fold_left Iset.union Iset.empty in_state in
            let kind_of =
              if not record then fun _ -> k_oblivious
              else begin
                let bypass = ref Iset.empty in
                for c = 1 to nchan - 1 do
                  bypass := Iset.union !bypass in_state.(c)
                done;
                let bp = !bypass in
                fun d ->
                  if Hashtbl.mem join_src d then k_join
                  else if Iset.mem d bp then k_fork_bypass
                  else k_oblivious
              end
            in
            let link_all node_id =
              Iset.iter (fun d -> add_edge ~kind:(kind_of d) t d o node_id) all_defs
            in
            let collapse_to node_id =
              (* all channels absorbed into one def node *)
              link_all node_id;
              let st = Array.copy empty_state in
              st.(0) <- Iset.singleton node_id;
              st
            in
            let new_state =
              match Func.stmt f i with
              | Stmt.Load { src; _ } when Iset.mem o (A.pt_var ast src) ->
                link_all (intern t (Stmt_node gid));
                in_state
              | Stmt.Store { dst; _ } when Iset.mem o (A.pt_var ast dst) ->
                collapse_to (intern t (Stmt_node gid))
              | (Stmt.Call _ | Stmt.Fork _) as s -> (
                let callees = A.callees ast ~fid ~idx:i in
                let relevant g =
                  Iset.mem o (Modref.mod_of mr g) || Iset.mem o (Modref.ref_of mr g)
                in
                List.iter
                  (fun g ->
                    if relevant g then
                      Iset.iter
                        (fun d -> add_edge t d o (intern t (Formal_in (g, o))))
                        all_defs)
                  callees;
                let mods = List.filter (fun g -> Iset.mem o (Modref.mod_of mr g)) callees in
                let is_fork = match s with Stmt.Fork _ -> true | _ -> false in
                let after_call =
                  if mods = [] then in_state
                  else begin
                    let chi = intern t (Call_chi (gid, o)) in
                    List.iter
                      (fun g -> add_edge t (intern t (Formal_out (g, o))) o chi)
                      mods;
                    if is_fork then begin
                      (* strong fork chi; pre-fork defs move to the fork's
                         bypass channel *)
                      let st = Array.copy empty_state in
                      st.(0) <- Iset.singleton chi;
                      (match Hashtbl.find_opt fork_channel gid with
                      | Some c -> st.(c) <- all_defs
                      | None -> ());
                      st
                    end
                    else begin
                      (* synchronous call: the chi absorbs every channel; the
                         old value passes around only when some callee may
                         leave the object untouched *)
                      if List.exists (fun g -> not (Iset.mem o (Modref.mod_of mr g))) callees
                      then link_all chi;
                      let st = Array.copy empty_state in
                      st.(0) <- Iset.singleton chi;
                      st
                    end
                  end
                in
                (* a fork also writes the thread object into the handle *)
                match s with
                | Stmt.Fork { handle = Some h; _ } when Iset.mem o (A.pt_var ast h) ->
                  let nd = intern t (Stmt_node gid) in
                  Array.iter (fun ch -> Iset.iter (fun d -> add_edge t d o nd) ch) after_call;
                  let st = Array.copy empty_state in
                  st.(0) <- Iset.singleton nd;
                  st
                | _ -> after_call)
              | Stmt.Return _ when Iset.mem o (Modref.mod_of mr fid) ->
                link_all (intern t (Formal_out (fid, o)));
                in_state
              | _ -> (
                (* handled join or symmetric loop exit (paper §3.2 step 3):
                   inject the spawnees' formal-outs; kill matching bypasses *)
                match Hashtbl.find_opt join_info gid with
                | Some infos ->
                  let st = Array.copy in_state in
                  List.iter
                    (fun (fg, sf, mods) ->
                      if Iset.mem o mods then begin
                        let fo = intern t (Formal_out (sf, o)) in
                        if record then Hashtbl.replace join_src fo ();
                        st.(0) <- Iset.add fo st.(0)
                      end;
                      match Hashtbl.find_opt fork_channel fg with
                      | Some c -> st.(c) <- Iset.empty
                      | None -> ())
                    infos;
                  st
                | None -> in_state)
            in
            let changed =
              out.(i) = [||]
              ||
              let old = out.(i) in
              let rec differs c =
                c < nchan && ((not (Iset.equal new_state.(c) old.(c))) || differs (c + 1))
              in
              differs 0
            in
            if changed then begin
              out.(i) <- new_state;
              List.iter push f.Func.succ.(i)
            end
          done)
        objs
      end);
  t.cur_owner <- -1

(* ------------------------------------------------------------------------ *)
(* Thread-aware edges: [THREAD-VF] with the lock filter.

   Pair discovery walks the sorted store-object list once, memoising MHP
   and lock queries, and adds each kept pair's edge and racy marks as it is
   found; the work tallies are flushed to the metrics registry at the
   end.                                                                      *)
(* ------------------------------------------------------------------------ *)

(* Span heads and tails (Definitions 4 and 5), per (span, object), against
   the thread-oblivious def-use edges built above. Definitions 4/5 refer to
   the def-use chains available when the lock analysis runs, so the tests
   skip every [THREAD-VF] edge: the snapshot is the statement-to-statement
   edges with an owner. A [THREAD-VF] edge gains an owner only through a
   patch promotion, which a cold build would have derived as oblivious. *)
type span_info = { hd : (int, unit) Hashtbl.t; tl : (int, unit) Hashtbl.t }

(* [THREAD-VF] pair discovery and application, restricted to the objects
   accepted by [obj_filter] — the full sorted store-object list on a cold
   build, the dirty objects on a patch. Per-object work is independent (all
   edges, racy marks and dedup checks are keyed by the object), so a
   filtered run produces, for each accepted object, exactly the edges,
   racy marks and work counters of the cold run. *)
let discover_objects t config ast tm mhp lk pcg ~obj_filter =
  let prog = t.prog in
  let record = t.record_prov <> None in
  let tbl_add tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  (* Index stores and accesses per object, recording each access's points-to
     set once — the only [A.pt_var] calls of the phase; the table also
     hoists the repeated per-member lookups out of the span head/tail
     computation. *)
  let stores_of : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let accesses_of : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let pts_of_gid : (int, Iset.t) Hashtbl.t = Hashtbl.create 256 in
  Prog.iter_stmts prog (fun gid _ s ->
      match s with
      | Stmt.Load { src; _ } ->
        let pts = A.pt_var ast src in
        Hashtbl.replace pts_of_gid gid pts;
        Iset.iter (fun o -> tbl_add accesses_of o gid) pts
      | Stmt.Store { dst; _ } ->
        let pts = A.pt_var ast dst in
        Hashtbl.replace pts_of_gid gid pts;
        Iset.iter
          (fun o ->
            tbl_add accesses_of o gid;
            tbl_add stores_of o gid)
          pts
      | _ -> ());
  let pts_at gid = Option.value ~default:Iset.empty (Hashtbl.find_opt pts_of_gid gid) in
  let stride = Prog.n_stmts prog in
  let objs =
    Array.of_list
      (List.sort compare
         (Hashtbl.fold (fun o _ acc -> if obj_filter o then o :: acc else acc) stores_of []))
  in
  let mhp_stats = Mta.Mhp.fresh_stats () in
  let lk_cache = Mta.Locks.make_cache () in
  let considered = ref 0 and skipped_stmt = ref 0 and lock_filtered = ref 0 in
  (* the unprotected pairs are collected per object into [t.pairs] rows *)
  let rows = Hashtbl.create 64 in
  let add_pair o s s' ~unprotected =
    let a = intern t (Stmt_node s) and b = intern t (Stmt_node s') in
    if not (has_edge t a o b) then begin
      add_edge ~kind:k_thread_vf t a o b;
      t.thread_edges <- t.thread_edges + 1
    end;
    if unprotected then begin
      Hashtbl.replace rows o
        (((s * stride) + s') :: Option.value ~default:[] (Hashtbl.find_opt rows o));
      let mark g =
        Hashtbl.replace t.racy g
          (Iset.add o (Option.value ~default:Iset.empty (Hashtbl.find_opt t.racy g)))
      in
      mark s;
      match Prog.stmt_at prog s' with Stmt.Store _ -> mark s' | _ -> ()
    end
  in
  (* the justification pass re-runs the lock queries with a throwaway
     cache so the flushed counters stay identical with recording off *)
  let why_cache = if record then Some (Mta.Locks.make_cache ()) else None in
  let span_accs = Hashtbl.create 64 in
  let span_cache = Hashtbl.create 64 in
  let mhp_cache = Arena.Intmap.create ~capacity:1024 () in
  let threads_of_gid = Hashtbl.create 256 in
  (* a span's load/store members with their gids and points-to sets, once
     per span visited *)
  let span_accesses sid =
    match Hashtbl.find_opt span_accs sid with
    | Some l -> l
    | None ->
      let l =
        List.filter_map
          (fun iid ->
            let gid = (Mta.Threads.inst tm iid).Mta.Threads.i_gid in
            match Prog.stmt_at prog gid with
            | Stmt.Load _ -> Some (iid, gid, false, pts_at gid)
            | Stmt.Store _ -> Some (iid, gid, true, pts_at gid)
            | _ -> None)
          (Mta.Locks.span_members lk sid)
      in
      Hashtbl.replace span_accs sid l;
      l
  in
  let span_hd_tl sid o =
    match Hashtbl.find_opt span_cache (sid, o) with
    | Some si -> si
    | None ->
      let accs = List.filter (fun (_, _, _, pts) -> Iset.mem o pts) (span_accesses sid) in
      (* per-gid occurrence counts; instance ids are unique within the
         span, and a gid determines its instance's gid, so "another
         instance (iid', g') with an edge to/from g" reduces to: some
         def-use neighbour g' of g is accessed here — by any instance if
         g' ≠ g, by at least two if g' = g *)
      let acc_cnt = Hashtbl.create 8 and st_cnt = Hashtbl.create 8 in
      let bump tbl g =
        Hashtbl.replace tbl g (1 + Option.value ~default:0 (Hashtbl.find_opt tbl g))
      in
      List.iter
        (fun (_, g, is_store, _) ->
          bump acc_cnt g;
          if is_store then bump st_cnt g)
        accs;
      (* some oblivious def-use neighbour on [o] of [g]'s node, on the
         [pred] or succ side, is counted in [cnt] *)
      let blocked ~pred cnt g =
        match Hashtbl.find_opt t.index (Stmt_node g) with
        | None -> false
        | Some n ->
          List.exists
            (fun (o', m) ->
              o' = o
              &&
              match Vec.get t.nodes m with
              | Stmt_node g' -> (
                match Hashtbl.find_opt cnt g' with
                | Some c when g' <> g || c >= 2 ->
                  let edge = if pred then (m, o, n) else (n, o, m) in
                  not (is_thread_vf (Hashtbl.find t.edges edge))
                | _ -> false)
              | _ -> false)
            (Vec.get (if pred then t.preds else t.succs) n)
      in
      let hd = Hashtbl.create 8 and tl = Hashtbl.create 8 in
      List.iter
        (fun (iid, g, is_store, _) ->
          if not (blocked ~pred:true acc_cnt g) then Hashtbl.replace hd iid ();
          if is_store && not (blocked ~pred:false st_cnt g) then Hashtbl.replace tl iid ())
        accs;
      let si = { hd; tl } in
      Hashtbl.replace span_cache (sid, o) si;
      si
  in
  (* statement-level MHP per configuration, memoised: the same (s, s')
     pair recurs once per commonly-pointed object; both backends are
     symmetric, so the key is canonicalised. A flat table: under the
     No-Value-Flow ablation it holds a verdict for most store/access pairs
     of the program. *)
  let stmt_mhp s s' =
    let key = if s <= s' then (s * stride) + s' else (s' * stride) + s in
    Arena.Intmap.find_or_add mhp_cache ~key (fun () ->
        let b =
          if config.use_interleaving then Mta.Mhp.mhp_stmt ~stats:mhp_stats mhp s s'
          else Mta.Pcg.mec_stmt pcg s s'
        in
        Bool.to_int b)
    = 1
  in
  let inst_pairs s s' =
    if config.use_interleaving then Mta.Mhp.mhp_pairs_inst ~stats:mhp_stats mhp s s'
    else
      (* PCG gives no instance-level facts: all instance combinations *)
      List.concat_map
        (fun i -> List.map (fun j -> (i, j)) (Mta.Threads.insts_of_gid tm s'))
        (Mta.Threads.insts_of_gid tm s)
  in
  (* Definition 6: the instance pair cannot pass a value for o *)
  let non_interfering o (i, j) =
    List.exists
      (fun (sp, sp') ->
        let si = span_hd_tl sp o and sj = span_hd_tl sp' o in
        (not (Hashtbl.mem si.tl i)) || not (Hashtbl.mem sj.hd j))
      (Mta.Locks.common_lock ~cache:lk_cache lk i j)
  in
  (* Like [non_interfering] but returns the first justifying span pair and
     which half of Definition 6 held (provenance mode only). *)
  let non_interfering_why o (i, j) =
    let cache = Option.get why_cache in
    List.find_map
      (fun (sp, sp') ->
        let si = span_hd_tl sp o and sj = span_hd_tl sp' o in
        let store_not_tail = not (Hashtbl.mem si.tl i) in
        let load_not_head = not (Hashtbl.mem sj.hd j) in
        if store_not_tail || load_not_head then Some (sp, sp', store_not_tail, load_not_head)
        else None)
      (Mta.Locks.common_lock ~cache lk i j)
  in
  let record_verdict o s s' ~tag ~x ~y ~z =
    match t.record_prov with
    | Some r -> Fsam_prov.set r ~space:Fsam_prov.sp_pair ~k1:s ~k2:s' ~obj:o ~tag ~x ~y ~z
    | None -> ()
  in
  let consider_edge o s s' =
    incr considered;
    if not (stmt_mhp s s') then begin
      incr skipped_stmt;
      if record then record_verdict o s s' ~tag:Fsam_prov.p_skipped_mhp ~x:0 ~y:0 ~z:0
    end
    else begin
      let pairs = inst_pairs s s' in
      let blocked = config.use_lock && pairs <> [] && List.for_all (non_interfering o) pairs in
      if blocked then begin
        incr lock_filtered;
        if record then begin
          let i, j = List.hd pairs in
          match non_interfering_why o (i, j) with
          | Some (sp, sp', store_not_tail, load_not_head) ->
            record_verdict o s s' ~tag:Fsam_prov.p_filtered_lock ~x:i ~y:j
              ~z:(Fsam_prov.pack_spans ~sp ~sp' ~store_not_tail ~load_not_head)
          | None -> ()
        end
      end
      else begin
        (* Strong updates: an interfering pair forbids them on o — the
           interleaving may order the accesses either way — unless every
           instance pair is protected by a common lock, in which case
           mutual exclusion guarantees the partner only observes
           section-exit state (the Figure 1(e) situation: the strong
           update at the section's tail store is what keeps the earlier
           section store out of pt(c)). *)
        let unprotected =
          (not config.use_lock)
          || pairs = []
          || List.exists (fun (i, j) -> not (Mta.Locks.commonly_protected lk i j)) pairs
        in
        if record then begin
          let y, z = match pairs with (i, j) :: _ -> (i, j) | [] -> (-1, -1) in
          record_verdict o s s' ~tag:Fsam_prov.p_kept
            ~x:(if unprotected then 1 else 0)
            ~y ~z
        end;
        add_pair o s s' ~unprotected
      end
    end
  in
  (* Escape filter: an object whose accesses all come from one non-multi-
     forked thread cannot be in any MHP aliased pair — skip its whole pair
     space. (Only valid under [THREAD-VF]'s common-object requirement; the
     No-Value-Flow ablation pairs stores with every access regardless.) *)
  let gid_threads g =
    match Hashtbl.find_opt threads_of_gid g with
    | Some s -> s
    | None ->
      let s =
        List.fold_left
          (fun acc iid -> Iset.add (Mta.Threads.inst tm iid).Mta.Threads.i_thread acc)
          Iset.empty (Mta.Threads.insts_of_gid tm g)
      in
      Hashtbl.replace threads_of_gid g s;
      s
  in
  let may_escape o =
    let ts =
      List.fold_left
        (fun acc g -> Iset.union acc (gid_threads g))
        Iset.empty
        (Option.value ~default:[] (Hashtbl.find_opt accesses_of o))
    in
    match Iset.elements ts with
    | [] -> false
    | [ t' ] -> Mta.Threads.is_multi tm t'
    | _ -> true
  in
  Obs.Span.with_ ~name:"svfg.pair_discovery" (fun () ->
      Array.iter
        (fun o ->
          let stores = Option.value ~default:[] (Hashtbl.find_opt stores_of o) in
          let escapes = lazy (may_escape o) in
          List.iter
            (fun s ->
              if config.use_value_flow then begin
                (* [THREAD-VF]: common value flow required — targets are the
                   accesses of the same object *)
                if Lazy.force escapes then
                  List.iter
                    (fun s' -> consider_edge o s s')
                    (Option.value ~default:[] (Hashtbl.find_opt accesses_of o))
              end
              else
                (* No-Value-Flow: pair with every load/store in the program *)
                Prog.iter_stmts prog (fun s' _ st ->
                    match st with
                    | Stmt.Load _ | Stmt.Store _ -> consider_edge o s s'
                    | _ -> ()))
            stores)
        objs);
  Hashtbl.iter (fun o l -> Hashtbl.replace t.pairs o (Array.of_list l)) rows;
  Obs.Metrics.(add (counter "svfg.thread_pairs_considered") !considered);
  Obs.Metrics.(add (counter "svfg.pairs_skipped_stmt") !skipped_stmt);
  Obs.Metrics.(add (counter "svfg.lock_filtered_edges") !lock_filtered);
  Obs.Metrics.(add (counter "mhp.summary_stmt_queries") mhp_stats.Mta.Mhp.stmt_queries);
  Obs.Metrics.(add (counter "mhp.summary_pair_queries") mhp_stats.Mta.Mhp.pair_queries);
  Obs.Metrics.(add (counter "mhp.summary_thread_checks") mhp_stats.Mta.Mhp.thread_checks);
  Obs.Metrics.(add (counter "mhp.summary_inst_checks") mhp_stats.Mta.Mhp.inst_checks);
  Obs.Metrics.(add (counter "locks.queries") (Mta.Locks.cache_queries lk_cache));
  Obs.Metrics.(add (counter "locks.bitset_hits") (Mta.Locks.cache_bitset_hits lk_cache));
  Obs.Metrics.(add (counter "locks.pair_memo_hits") (Mta.Locks.cache_memo_hits lk_cache));
  Obs.Metrics.(add (counter "locks.span_pair_checks") (Mta.Locks.cache_span_checks lk_cache))

let build ?(config = default_config) ?prov prog ast mr tm mhp lk pcg =
  let t =
    {
      prog;
      nodes = Vec.create ();
      index = Hashtbl.create 1024;
      preds = Vec.create ();
      succs = Vec.create ();
      edges = Hashtbl.create 4096;
      thread_edges = 0;
      racy = Hashtbl.create 64;
      pairs = Hashtbl.create 64;
      record_prov = prov;
      cur_owner = -1;
      log_adds = false;
      add_log = [];
    }
  in
  (* mu/chi annotation material (what each join makes visible) *)
  let join_info = Obs.Span.with_ ~name:"svfg.join_info" (fun () -> join_info_tbl tm mr) in
  (* thread-oblivious def-use edge derivation (memory-SSA reaching defs) *)
  Obs.Span.with_ ~name:"svfg.oblivious" (fun () -> build_oblivious t ast mr join_info);
  (* [THREAD-VF] edges, filtered by the lock analysis *)
  Obs.Span.with_ ~name:"svfg.thread_aware" (fun () ->
      discover_objects t config ast tm mhp lk pcg ~obj_filter:(fun _ -> true));
  Obs.Metrics.(set (gauge "svfg.nodes") (n_nodes t));
  Obs.Metrics.(set (gauge "svfg.edges") (n_edges t));
  Obs.Metrics.(set (gauge "svfg.thread_aware_edges") t.thread_edges);
  Obs.Metrics.(set (gauge "svfg.racy_stores") (Hashtbl.length t.racy));
  t

let racy_objs t gid = Option.value ~default:Iset.empty (Hashtbl.find_opt t.racy gid)

let iter_unprotected_pairs t f =
  let stride = Prog.n_stmts t.prog in
  Hashtbl.iter
    (fun o row -> Array.iter (fun p -> f ~obj:o ~store:(p / stride) ~access:(p mod stride)) row)
    t.pairs

(* Stable textual key of a node's structure — gids and object ids, never
   the intern-order index, so fingerprints compare across graphs that
   interned their nodes in different orders. *)
let node_key t i =
  match Vec.get t.nodes i with
  | Stmt_node g -> "s" ^ string_of_int g
  | Formal_in (f, o) -> Printf.sprintf "i%d.%d" f o
  | Formal_out (f, o) -> Printf.sprintf "o%d.%d" f o
  | Call_chi (g, o) -> Printf.sprintf "c%d.%d" g o

(* Canonical structural fingerprint: edge counts, the sorted structural
   edge triples, the racy-object sets per store and the sorted unprotected
   pair rows per object. Keys are structural (gids / fids / object ids),
   not intern-order node indices, and nodes
   that carry no edges contribute nothing — so a patched generation (which
   keeps the old generation's node numbering and may retain orphaned
   interns) digests equal to a cold rebuild iff they denote the same graph.
   This is the identity the serve differential mode checks. *)
let digest t =
  let edges =
    Hashtbl.fold
      (fun (s, o, d) _ acc ->
        Printf.sprintf "%s:%d>%s;" (node_key t s) o (node_key t d) :: acc)
      t.edges []
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "e=%d t=%d;" (n_edges t) t.thread_edges);
  List.iter (Buffer.add_string buf) (List.sort compare edges);
  for gid = 0 to Prog.n_stmts t.prog - 1 do
    let r = racy_objs t gid in
    if not (Iset.is_empty r) then
      Buffer.add_string buf
        (Printf.sprintf "r%d=%s;" gid
           (String.concat "," (List.map string_of_int (Iset.elements r))))
  done;
  List.iter
    (fun (o, row) ->
      let row = Array.copy row in
      Array.sort Int.compare row;
      Buffer.add_string buf
        (Printf.sprintf "p%d=%s;" o
           (String.concat "," (Array.to_list (Array.map string_of_int row)))))
    (List.sort compare (Hashtbl.fold (fun o row acc -> (o, row) :: acc) t.pairs []));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------------ *)
(* In-place incremental patching (fsam serve warm edits).

   [patch old ...] produces a new generation's SVFG from the previous one
   without rebuilding the clean regions:

   1. {b dirty functions} — a function's per-fn oblivious dataflow is a
      pure function of its statements, the points-to sets at its loads /
      stores / fork handles, its own and its callees' mod/ref summaries,
      and the join rows at its gids. A function any of whose inputs drifted
      (plus the edited functions themselves) is dirty; everything else
      reproduces its old edges verbatim in a cold build, so they are kept.
      One closure step: a [Formal_out -> Formal_in] edge can be derived by
      several functions but records only its first owner, so when that
      owner is dirty every potential adder (any function with a new join
      row exposing the source thread's mods on that object) is made dirty
      too — after which retract-and-recompute is exact for this shape as
      well.
   2. {b retract} every oblivious edge owned by a dirty function, then
      re-run the per-fn oblivious construction for dirty functions only.
   3. {b dirty objects} — [THREAD-VF] discovery is independent per object
      (edges, dedup checks, racy marks and pair rows are all keyed by the
      object), and per object it is a pure function of the object's oblivious rows, its
      access lists with their points-to sets, and the reused mta indexes.
      An object whose oblivious row multiset changed, or that entered/left
      an access's points-to set, is dirty; its old thread-vf edges, racy
      marks and pair row are discarded and discovery re-runs for exactly
      the dirty objects. Clean objects keep their
      edges, marks and rows, which a cold build would reproduce
      identically.

   The result is byte-identical (structural digest, racy sets, counters of
   retained work excluded) to a cold [build] of the new program — the serve
   engine's differential mode re-certifies this on every edit.

   Preconditions the caller (the serve engine) must establish: statement
   gids identical across generations (same functions, same per-function
   statement counts), identical object tables, the thread model / MHP /
   lock analysis reused from the previous generation (which itself implies
   unchanged call, fork and join resolution) and provenance off. Violations
   the patcher can detect cheaply return [Error reason] and the engine
   falls back to a cold rebuild, counting the reason. *)
(* ------------------------------------------------------------------------ *)

type patch_stats = {
  ps_dirty_fns : int;
  ps_dirty_objs : int;
  ps_removed : int;  (** oblivious edges retracted *)
  ps_added : int;  (** oblivious edges re-derived (including promotions) *)
}

let vec_copy v = Vec.of_list (Vec.to_list v)

let clone t =
  {
    prog = t.prog;
    nodes = vec_copy t.nodes;
    index = Hashtbl.copy t.index;
    preds = vec_copy t.preds;
    succs = vec_copy t.succs;
    edges = Hashtbl.copy t.edges;
    thread_edges = t.thread_edges;
    racy = Hashtbl.copy t.racy;
    pairs = Hashtbl.copy t.pairs;
    record_prov = t.record_prov;
    cur_owner = -1;
    log_adds = false;
    add_log = [];
  }

let patch old ?(config = default_config) ~prog ~old_ast ~ast ~old_mr ~mr ~tm ~mhp ~lk
    ~pcg ~edited_fids () =
  let old_prog = old.prog in
  let shape_ok =
    Prog.n_funcs prog = Prog.n_funcs old_prog
    && Prog.n_stmts prog = Prog.n_stmts old_prog
    &&
    let ok = ref true in
    Prog.iter_funcs prog (fun f ->
        if Func.n_stmts f <> Func.n_stmts (Prog.func old_prog f.Func.fid) then ok := false);
    !ok
  in
  if old.record_prov <> None then Error "svfg_provenance"
  else if not shape_ok then Error "svfg_shape"
  else begin
    let t = clone old in
    t.prog <- prog;
    let nf = Prog.n_funcs prog in
    let dirty = Array.make nf false in
    List.iter (fun f -> if f >= 0 && f < nf then dirty.(f) <- true) edited_fids;
    (* -- step 1: dirty functions ---------------------------------------- *)
    let old_ji = join_info_tbl tm old_mr in
    let new_ji = join_info_tbl tm mr in
    let mr_drift = Array.make nf false in
    for fid = 0 to nf - 1 do
      if
        (not (Iset.equal (Modref.mod_of old_mr fid) (Modref.mod_of mr fid)))
        || not (Iset.equal (Modref.ref_of old_mr fid) (Modref.ref_of mr fid))
      then begin
        mr_drift.(fid) <- true;
        dirty.(fid) <- true
      end
    done;
    let dirty_objs = ref Iset.empty in
    let ji_rows tbl gid = Option.value ~default:[] (Hashtbl.find_opt tbl gid) in
    let ji_rows_equal a b =
      List.length a = List.length b
      && List.for_all2
           (fun (fg, sf, m) (fg', sf', m') -> fg = fg' && sf = sf' && Iset.equal m m')
           a b
    in
    (* the points-to set an access statement indexes the SVFG by *)
    let acc_pts solver s =
      match s with
      | Stmt.Load { src; _ } -> A.pt_var solver src
      | Stmt.Store { dst; _ } -> A.pt_var solver dst
      | Stmt.Fork { handle = Some h; _ } -> A.pt_var solver h
      | _ -> Iset.empty
    in
    Prog.iter_funcs prog (fun f ->
        let fid = f.Func.fid in
        Func.iter_stmts f (fun i sn ->
            let gid = Prog.gid prog ~fid ~idx:i in
            let so = Prog.stmt_at old_prog gid in
            (* join rows at this gid drifted (e.g. a joined thread's start
               function now mods a different object set) *)
            if not (ji_rows_equal (ji_rows old_ji gid) (ji_rows new_ji gid)) then
              dirty.(fid) <- true;
            (* callee mod/ref summaries feed the caller's channels *)
            (match sn with
            | Stmt.Call _ | Stmt.Fork _ ->
              if List.exists (fun g -> mr_drift.(g)) (A.callees ast ~fid ~idx:i) then
                dirty.(fid) <- true
            | _ -> ());
            let po = acc_pts old_ast so and pn = acc_pts ast sn in
            if so <> sn then
              (* an edited statement: every object either side touches must
                 re-discover its pair space *)
              dirty_objs := Iset.union !dirty_objs (Iset.union po pn)
            else if not (Iset.equal po pn) then begin
              dirty.(fid) <- true;
              dirty_objs :=
                Iset.union !dirty_objs (Iset.union (Iset.diff po pn) (Iset.diff pn po))
            end));
    (* Formal_out -> Formal_in adder closure: potential adders of a
       [Formal_out (sf, o)] def are the functions with a new join row
       exposing sf's mods on o *)
    let adders : (int * int, int list ref) Hashtbl.t = Hashtbl.create 64 in
    Hashtbl.iter
      (fun gid rows ->
        let fid = Prog.func_of_gid prog gid in
        List.iter
          (fun (_, sf, mods) ->
            Iset.iter
              (fun o ->
                let r =
                  match Hashtbl.find_opt adders (sf, o) with
                  | Some r -> r
                  | None ->
                    let r = ref [] in
                    Hashtbl.replace adders (sf, o) r;
                    r
                in
                if not (List.mem fid !r) then r := fid :: !r)
              mods)
          rows)
      new_ji;
    let changed = ref true in
    while !changed do
      changed := false;
      Hashtbl.iter
        (fun (src, o, dst) tg ->
          if (not (is_thread_vf tg)) && dirty.(tag_owner tg) then
            match (Vec.get t.nodes src, Vec.get t.nodes dst) with
            | Formal_out (sf, _), Formal_in _ -> (
              match Hashtbl.find_opt adders (sf, o) with
              | Some r ->
                List.iter
                  (fun f ->
                    if not dirty.(f) then begin
                      dirty.(f) <- true;
                      changed := true
                    end)
                  !r
              | None -> ())
            | _ -> ())
        t.edges
    done;
    (* -- step 2: retract and recompute the dirty oblivious regions ------- *)
    let gid_of i = match Vec.get t.nodes i with Stmt_node g -> g | _ -> -1 in
    let obl_removed : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 64 in
    let obl_added : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 64 in
    let log_pair tbl o p =
      match Hashtbl.find_opt tbl o with
      | Some r -> r := p :: !r
      | None -> Hashtbl.replace tbl o (ref [ p ])
    in
    let removed = Hashtbl.create 256 in
    let touched = Hashtbl.create 256 in
    (* the statement-to-statement oblivious pairs a retraction or re-derivation
       touches, per object: they pick the dirty objects of step 3 *)
    let log_stmt_pair tbl (src, o, dst) =
      let gs = gid_of src and gd = gid_of dst in
      if gs >= 0 && gd >= 0 then log_pair tbl o (gs, gd)
    in
    let drop_edge ((src, _, dst) as k) =
      Hashtbl.remove t.edges k;
      Hashtbl.replace removed k ();
      Hashtbl.replace touched src ();
      Hashtbl.replace touched dst ();
      log_stmt_pair obl_removed k
    in
    Hashtbl.fold
      (fun k tg acc -> if (not (is_thread_vf tg)) && dirty.(tag_owner tg) then k :: acc else acc)
      t.edges []
    |> List.iter drop_edge;
    let prune tbl =
      Hashtbl.iter
        (fun v () ->
          Vec.set t.preds v
            (List.filter (fun (o, s) -> not (Hashtbl.mem tbl (s, o, v))) (Vec.get t.preds v));
          Vec.set t.succs v
            (List.filter (fun (o, d) -> not (Hashtbl.mem tbl (v, o, d))) (Vec.get t.succs v)))
        touched
    in
    prune removed;
    let n_removed = Hashtbl.length removed in
    t.log_adds <- true;
    build_oblivious ~only:(fun fid -> dirty.(fid)) t ast mr new_ji;
    t.log_adds <- false;
    let n_added = List.length t.add_log in
    List.iter (log_stmt_pair obl_added) t.add_log;
    t.add_log <- [];
    (* -- step 3: dirty objects, thread-vf retraction, re-discovery ------- *)
    let keys tbl = Hashtbl.fold (fun o _ acc -> o :: acc) tbl [] in
    List.iter
      (fun o ->
        if not (Iset.mem o !dirty_objs) then begin
          let l tbl =
            match Hashtbl.find_opt tbl o with
            | Some r -> List.sort compare !r
            | None -> []
          in
          if l obl_removed <> l obl_added then dirty_objs := Iset.add o !dirty_objs
        end)
      (List.sort_uniq compare (keys obl_removed @ keys obl_added));
    let dobjs = !dirty_objs in
    Hashtbl.reset touched;
    let removed_tvf = Hashtbl.create 64 in
    Hashtbl.fold
      (fun ((_, o, _) as k) tg acc ->
        if is_thread_vf tg && Iset.mem o dobjs then k :: acc else acc)
      t.edges []
    |> List.iter (fun ((src, _, dst) as k) ->
           t.thread_edges <- t.thread_edges - 1;
           Hashtbl.remove t.edges k;
           Hashtbl.replace removed_tvf k ();
           Hashtbl.replace touched src ();
           Hashtbl.replace touched dst ());
    prune removed_tvf;
    Hashtbl.fold (fun g r acc -> (g, r) :: acc) t.racy []
    |> List.iter (fun (g, r) ->
           let r' = Iset.diff r dobjs in
           if Iset.is_empty r' then Hashtbl.remove t.racy g
           else if not (Iset.equal r r') then Hashtbl.replace t.racy g r');
    Iset.iter (Hashtbl.remove t.pairs) dobjs;
    discover_objects t config ast tm mhp lk pcg ~obj_filter:(fun o -> Iset.mem o dobjs);
    Obs.Metrics.(set (gauge "svfg.nodes") (n_nodes t));
    Obs.Metrics.(set (gauge "svfg.edges") (n_edges t));
    Obs.Metrics.(set (gauge "svfg.thread_aware_edges") t.thread_edges);
    Obs.Metrics.(set (gauge "svfg.racy_stores") (Hashtbl.length t.racy));
    let n_dirty = Array.fold_left (fun n b -> if b then n + 1 else n) 0 dirty in
    Obs.Metrics.(add (counter "svfg.patch_runs") 1);
    Obs.Metrics.(add (counter "svfg.patch_dirty_fns") n_dirty);
    Obs.Metrics.(add (counter "svfg.patch_dirty_objs") (Iset.cardinal dobjs));
    Obs.Metrics.(add (counter "svfg.patch_removed_edges") n_removed);
    Obs.Metrics.(add (counter "svfg.patch_added_edges") n_added);
    Ok
      ( t,
        {
          ps_dirty_fns = n_dirty;
          ps_dirty_objs = Iset.cardinal dobjs;
          ps_removed = n_removed;
          ps_added = n_added;
        } )
  end

let pp_stats ppf t =
  Format.fprintf ppf "svfg: %d nodes, %d edges (%d thread-aware)" (n_nodes t) (n_edges t)
    t.thread_edges
