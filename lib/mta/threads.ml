open Fsam_dsa
open Fsam_ir
module A = Fsam_andersen.Solver

type inst = { i_thread : int; i_ctx : Ctx.t; i_gid : int }

type thread = {
  tid : int;
  spawn_ctx : Ctx.t; (* calling context of the fork site *)
  fork_gid : int option; (* None for main *)
  fork_id : int option;
  start : int list; (* start procedures *)
  par : int option;
  multi : bool;
  multi_loop_only : bool; (* multi-forked solely because the fork is in a loop *)
}

type t = {
  prog : Prog.t;
  ast : A.t;
  icfg : Icfg.t;
  cs : Ctx.store;
  threads : thread Vec.t;
  insts : inst Vec.t;
  inst_index : (int * Ctx.t * int, int) Hashtbl.t;
  isucc : int list Vec.t;
  entry_tbl : int list Vec.t; (* per thread: entry instance ids *)
  by_gid : (int, int list) Hashtbl.t;
  by_thread : int list Vec.t;
  forks_at : (int, int list) Hashtbl.t; (* fork iid -> direct spawnee tids *)
  kills_at : (int, int list) Hashtbl.t; (* join iid -> killed tids *)
  desc : Iset.t array;
  anc : Iset.t array;
  full_join_tbl : (int * int, bool) Hashtbl.t;
}

(* -- Exploration ---------------------------------------------------------- *)

type explore_state = {
  e_prog : Prog.t;
  e_ast : A.t;
  e_icfg : Icfg.t;
  e_cs : Ctx.store;
  e_threads : thread Vec.t;
  e_thread_index : (Ctx.t * int, int) Hashtbl.t;
  e_insts : inst Vec.t;
  e_index : (int * Ctx.t * int, int) Hashtbl.t;
  e_isucc : int list Vec.t;
  e_entries : int list Vec.t;
  e_joins : (int * int) list ref; (* (join iid, join gid) *)
  e_forks : (int * int) list ref; (* (fork iid, spawnee tid) *)
  sloppy : (int, unit) Hashtbl.t; (* callsites whose push was skipped *)
  max_depth : int;
}

let intern_inst st thread ctx gid =
  match Hashtbl.find_opt st.e_index (thread, ctx, gid) with
  | Some i -> (i, false)
  | None ->
    let i = Vec.push st.e_insts { i_thread = thread; i_ctx = ctx; i_gid = gid } in
    ignore (Vec.push st.e_isucc []);
    Hashtbl.replace st.e_index (thread, ctx, gid) i;
    (i, true)

(* Multi-fork test (Definition 1): the fork statement sits in a CFG cycle; or
   some callsite on the context chain sits in a CFG cycle; or any function on
   the chain is recursive (collapsed callsites); or the spawner is multi. *)
let multi_of st ~fork_gid ~spawn_ctx ~parent_multi =
  let fork_in_loop = Icfg.in_cfg_cycle st.e_icfg fork_gid in
  let chain = Ctx.to_list st.e_cs spawn_ctx in
  let chain_loop = List.exists (fun site -> Icfg.in_cfg_cycle st.e_icfg site) chain in
  let recursive =
    Icfg.collapsed_callsite st.e_icfg fork_gid
    || List.exists (fun site -> Icfg.collapsed_callsite st.e_icfg site) chain
    (* the fork's own function is recursive *)
    || Icfg.recursive st.e_icfg (Icfg.fid_of st.e_icfg fork_gid)
  in
  let multi = fork_in_loop || chain_loop || recursive || parent_multi in
  let loop_only = multi && fork_in_loop && (not chain_loop) && (not recursive) && not parent_multi in
  (multi, loop_only)

let new_thread st ~spawn_ctx ~fork_gid ~fork_id ~parent:par ~parent_multi =
  match Hashtbl.find_opt st.e_thread_index (spawn_ctx, fork_gid) with
  | Some tid -> (tid, false)
  | None ->
    let start = A.fork_targets st.e_ast fork_id in
    let multi, multi_loop_only = multi_of st ~fork_gid ~spawn_ctx ~parent_multi in
    let tid =
      Vec.push st.e_threads
        {
          tid = Vec.length st.e_threads;
          spawn_ctx;
          fork_gid = Some fork_gid;
          fork_id = Some fork_id;
          start;
          par = Some par;
          multi;
          multi_loop_only;
        }
    in
    ignore (Vec.push st.e_entries []);
    Hashtbl.replace st.e_thread_index (spawn_ctx, fork_gid) tid;
    (tid, true)

let explore_thread st tid =
  let th = Vec.get st.e_threads tid in
  let entry_ctx =
    match th.fork_gid with
    | None -> Ctx.empty
    | Some fk -> Ctx.push st.e_cs th.spawn_ctx fk
  in
  let worklist = Queue.create () in
  let entries =
    List.map
      (fun fid ->
        let g = Icfg.entry_gid st.e_icfg fid in
        let i, fresh = intern_inst st tid entry_ctx g in
        if fresh then Queue.add i worklist;
        i)
      th.start
  in
  Vec.set st.e_entries tid entries;
  let spawned = ref [] in
  while not (Queue.is_empty worklist) do
    let iid = Queue.pop worklist in
    let { i_ctx = ctx; i_gid = gid; _ } = Vec.get st.e_insts iid in
    (* record fork / join instances *)
    (match Icfg.stmt st.e_icfg gid with
    | Stmt.Fork { fork_id; _ } when A.fork_targets st.e_ast fork_id <> [] ->
      let tid', _fresh =
        new_thread st ~spawn_ctx:ctx ~fork_gid:gid ~fork_id ~parent:tid
          ~parent_multi:th.multi
      in
      st.e_forks := (iid, tid') :: !(st.e_forks);
      if not (List.mem tid' !spawned) then spawned := tid' :: !spawned
    | Stmt.Join _ -> st.e_joins := (iid, gid) :: !(st.e_joins)
    | _ -> ());
    let step ctx' gid' =
      let i, fresh = intern_inst st tid ctx' gid' in
      let cur = Vec.get st.e_isucc iid in
      if not (List.mem i cur) then Vec.set st.e_isucc iid (i :: cur);
      if fresh then Queue.add i worklist
    in
    List.iter
      (fun (kind, v) ->
        match kind with
        | Icfg.Intra -> step ctx v
        | Icfg.Call cs ->
          if Icfg.collapsed_callsite st.e_icfg cs || Ctx.depth st.e_cs ctx >= st.max_depth
          then begin
            Hashtbl.replace st.sloppy cs ();
            step ctx v
          end
          else step (Ctx.push st.e_cs ctx cs) v
        | Icfg.Ret cs -> (
          match Ctx.peek st.e_cs ctx with
          | Some top when top = cs -> step (Option.get (Ctx.pop st.e_cs ctx)) v
          | _ ->
            if Icfg.collapsed_callsite st.e_icfg cs || Hashtbl.mem st.sloppy cs then
              step ctx v))
      (Icfg.succs st.e_icfg gid)
  done;
  !spawned

let explore prog ast icfg max_depth =
  (* re-run from scratch whenever the sloppy-return set grows: returns of
     depth-truncated callsites must be followable from any context *)
  let sloppy = Hashtbl.create 16 in
  let rec attempt () =
    let st =
      {
        e_prog = prog;
        e_ast = ast;
        e_icfg = icfg;
        e_cs = Ctx.create_store ();
        e_threads = Vec.create ();
        e_thread_index = Hashtbl.create 16;
        e_insts = Vec.create ();
        e_index = Hashtbl.create 1024;
        e_isucc = Vec.create ();
        e_entries = Vec.create ();
        e_joins = ref [];
        e_forks = ref [];
        sloppy;
        max_depth;
      }
    in
    let n0 = Hashtbl.length sloppy in
    ignore
      (Vec.push st.e_threads
         {
           tid = 0;
           spawn_ctx = Ctx.empty;
           fork_gid = None;
           fork_id = None;
           start = [ Prog.main_fid prog ];
           par = None;
           multi = false;
           multi_loop_only = false;
         });
    ignore (Vec.push st.e_entries []);
    let q = Queue.create () in
    Queue.add 0 q;
    let seen = Hashtbl.create 16 in
    Hashtbl.replace seen 0 ();
    while not (Queue.is_empty q) do
      let tid = Queue.pop q in
      let spawned = explore_thread st tid in
      List.iter
        (fun t' ->
          if not (Hashtbl.mem seen t') then begin
            Hashtbl.replace seen t' ();
            Queue.add t' q
          end)
        spawned
    done;
    if Hashtbl.length sloppy > n0 then attempt () else st
  in
  attempt ()

(* -- Post-exploration relations ------------------------------------------ *)

let compute_desc_anc threads =
  let n = Vec.length threads in
  let desc = Array.make n Iset.empty and anc = Array.make n Iset.empty in
  (* children enumerated via parent links; close transitively (tree, so a
     single bottom-up pass in creation order is not enough — iterate) *)
  let changed = ref true in
  while !changed do
    changed := false;
    Vec.iter
      (fun th ->
        match th.par with
        | Some p ->
          let d = Iset.add th.tid (Iset.union desc.(p) desc.(th.tid)) in
          if not (Iset.equal d desc.(p)) then begin
            desc.(p) <- d;
            changed := true
          end
        | None -> ())
      threads
  done;
  Array.iteri (fun t ds -> Iset.iter (fun d -> anc.(d) <- Iset.add t anc.(d)) ds) desc;
  (desc, anc)

(* Symmetric fork/join loop recognition (Figure 11): fork and join each sit
   in their own loop of the same function — concretely, the fork lies on a
   cycle avoiding the join and vice versa. (A surrounding convergence loop,
   as in kmeans, may put both into one maximal SCC; what matters is that
   the inner fork loop and the inner join loop are distinct.) *)
let symmetric_loop_join icfg ~fork_gid ~join_gid =
  let prog = Icfg.prog icfg in
  let ffid = Icfg.fid_of icfg fork_gid and jfid = Icfg.fid_of icfg join_gid in
  ffid = jfid
  && Icfg.in_cfg_cycle icfg fork_gid
  && Icfg.in_cfg_cycle icfg join_gid
  &&
  let f = Prog.func prog ffid in
  let fk_idx = snd (Prog.of_gid prog fork_gid) and jn_idx = snd (Prog.of_gid prog join_gid) in
  let on_cycle_avoiding a b =
    (* is [a] on a cycle of the CFG with node [b] deleted? *)
    let succs i = if i = b then [] else List.filter (fun j -> j <> b) f.Func.succ.(i) in
    let scc = Fsam_graph.Scc.compute ~n:(Func.n_stmts f) ~succs in
    not (Fsam_graph.Scc.is_trivial scc ~succs a)
  in
  on_cycle_avoiding fk_idx jn_idx && on_cycle_avoiding jn_idx fk_idx

(* Exit statements of the CFG cycle containing [gid]: successors of cycle
   members outside the cycle. For a symmetric join loop the kill takes
   effect there — after the loop has joined every runtime instance — rather
   than at the join statement itself. *)
let loop_exit_gids icfg gid =
  let prog = Icfg.prog icfg in
  let fid = Icfg.fid_of icfg gid in
  let f = Prog.func prog fid in
  let scc = Fsam_graph.Scc.compute ~n:(Func.n_stmts f) ~succs:(Array.get f.Func.succ) in
  let idx = snd (Prog.of_gid prog gid) in
  let comp = scc.Fsam_graph.Scc.comp_of.(idx) in
  let exits = ref [] in
  List.iter
    (fun m ->
      List.iter
        (fun s ->
          if scc.Fsam_graph.Scc.comp_of.(s) <> comp then begin
            let eg = Prog.gid prog ~fid ~idx:s in
            if not (List.mem eg !exits) then exits := eg :: !exits
          end)
        f.Func.succ.(m))
    scc.Fsam_graph.Scc.comps.(comp);
  !exits

let build ?(max_ctx_depth = 24) prog ast icfg =
  let st = explore prog ast icfg max_ctx_depth in
  let threads = st.e_threads in
  let desc, anc = compute_desc_anc threads in
  (* join resolution *)
  let kills_at = Hashtbl.create 16 in
  let full_join_tbl = Hashtbl.create 16 in
  (* direct handled joins: join iid -> spawnee tids *)
  let direct_joins = Hashtbl.create 16 in
  (* join sites of a spawnee within the parent: tid' -> local stmt idx list *)
  let join_sites_of = Hashtbl.create 16 in
  List.iter
    (fun (iid, jn_gid) ->
      let { i_thread = tid; i_ctx = ctx; _ } = Vec.get st.e_insts iid in
      let jfid, jidx = Prog.of_gid prog jn_gid in
      let fork_ids = A.join_threads ast ~fid:jfid ~idx:jidx in
      List.iter
        (fun k ->
          let fk_fid, fk_idx = Prog.fork_site prog k in
          let fk_gid = Prog.gid prog ~fid:fk_fid ~idx:fk_idx in
          match Hashtbl.find_opt st.e_thread_index (ctx, fk_gid) with
          | Some tid' ->
            let th' = Vec.get threads tid' in
            if th'.par = Some tid then
              if not th'.multi then begin
                Hashtbl.replace direct_joins iid
                  (tid' :: Option.value ~default:[] (Hashtbl.find_opt direct_joins iid));
                Hashtbl.replace join_sites_of tid'
                  (jn_gid :: Option.value ~default:[] (Hashtbl.find_opt join_sites_of tid'))
              end
              else if
                th'.multi_loop_only
                && symmetric_loop_join icfg ~fork_gid:fk_gid ~join_gid:jn_gid
              then
                (* the kill takes effect at the join loop's exits, once all
                   runtime instances have been joined (Figure 11) *)
                List.iter
                  (fun exit_gid ->
                    match Hashtbl.find_opt st.e_index (tid, ctx, exit_gid) with
                    | Some exit_iid ->
                      Hashtbl.replace direct_joins exit_iid
                        (tid'
                        :: Option.value ~default:[]
                             (Hashtbl.find_opt direct_joins exit_iid));
                      Hashtbl.replace join_sites_of tid'
                        (exit_gid
                        :: Option.value ~default:[] (Hashtbl.find_opt join_sites_of tid'))
                    | None -> ())
                  (loop_exit_gids icfg jn_gid)
          | None -> ())
        fork_ids)
    !(st.e_joins);
  (* full joins: every path from the fork statement to the enclosing
     function's exits passes one of the spawnee's handled join sites *)
  let is_full_join tid' =
    let th' = Vec.get threads tid' in
    match th'.fork_gid with
    | None -> false
    | Some fk_gid -> (
      match Hashtbl.find_opt join_sites_of tid' with
      | None -> false
      | Some jns ->
        let fid = Icfg.fid_of icfg fk_gid in
        let f = Prog.func prog fid in
        let fk_idx = snd (Prog.of_gid prog fk_gid) in
        let targets = Bitvec.create ~capacity:(Func.n_stmts f) () in
        List.iter
          (fun jg -> if Icfg.fid_of icfg jg = fid then Bitvec.set targets (snd (Prog.of_gid prog jg)))
          jns;
        Fsam_graph.Reach.all_paths_hit ~n:(Func.n_stmts f) ~succs:(Array.get f.Func.succ)
          ~src:fk_idx ~targets ~exits:f.Func.exits)
  in
  let full_join_cache = Hashtbl.create 16 in
  let fully_joined tid' =
    match Hashtbl.find_opt full_join_cache tid' with
    | Some b -> b
    | None ->
      let b = is_full_join tid' in
      Hashtbl.replace full_join_cache tid' b;
      b
  in
  (* kill sets: direct spawnee plus closure over fully joined descendants *)
  let rec closure acc tid' =
    if List.mem tid' acc then acc
    else
      let acc = tid' :: acc in
      (* descendants of tid' that tid' fully joins *)
      Iset.fold
        (fun d acc ->
          let th_d = Vec.get threads d in
          if th_d.par = Some tid' && fully_joined d then closure acc d else acc)
        desc.(tid') acc
  in
  Hashtbl.iter
    (fun iid tids ->
      let killed = List.fold_left closure [] tids in
      Hashtbl.replace kills_at iid killed)
    direct_joins;
  Vec.iter
    (fun th ->
      match th.par with
      | Some p -> Hashtbl.replace full_join_tbl (p, th.tid) (fully_joined th.tid)
      | None -> ())
    threads;
  (* fork table *)
  let forks_at = Hashtbl.create 16 in
  List.iter
    (fun (iid, tid') ->
      Hashtbl.replace forks_at iid
        (tid' :: Option.value ~default:[] (Hashtbl.find_opt forks_at iid)))
    !(st.e_forks);
  (* indices *)
  let by_gid = Hashtbl.create 1024 in
  let by_thread = Vec.create () in
  for _ = 1 to Vec.length threads do
    ignore (Vec.push by_thread [])
  done;
  Vec.iteri
    (fun iid { i_thread; i_gid; _ } ->
      Hashtbl.replace by_gid i_gid
        (iid :: Option.value ~default:[] (Hashtbl.find_opt by_gid i_gid));
      Vec.set by_thread i_thread (iid :: Vec.get by_thread i_thread))
    st.e_insts;
  {
    prog;
    ast;
    icfg;
    cs = st.e_cs;
    threads;
    insts = st.e_insts;
    inst_index = st.e_index;
    isucc = st.e_isucc;
    entry_tbl = st.e_entries;
    by_gid;
    by_thread;
    forks_at;
    kills_at;
    desc;
    anc;
    full_join_tbl;
  }

(* -- Queries -------------------------------------------------------------- *)

let n_threads t = Vec.length t.threads
let main_tid _ = 0
let is_multi t tid = (Vec.get t.threads tid).multi
let parent t tid = (Vec.get t.threads tid).par
let start_fns t tid = (Vec.get t.threads tid).start
let fork_gid_of t tid = (Vec.get t.threads tid).fork_gid
let fork_id_of t tid = (Vec.get t.threads tid).fork_id
let descendants t tid = t.desc.(tid)
let ancestors t tid = t.anc.(tid)

let siblings t a b =
  a <> b && (not (Iset.mem b t.desc.(a))) && not (Iset.mem a t.desc.(b))

(* Chain of (thread, creating fork gid) from main down to [tid]; the
   justification backbone of MHP witnesses (main's entry is (main, None)). *)
let fork_chain t tid =
  let rec up tid acc =
    let acc = (tid, (Vec.get t.threads tid).fork_gid) :: acc in
    match (Vec.get t.threads tid).par with None -> acc | Some p -> up p acc
  in
  up tid []

let thread_name t tid =
  if tid = 0 then "main"
  else
    let th = Vec.get t.threads tid in
    Printf.sprintf "t%d@%s" tid
      (match th.start with
      | f :: _ -> (Prog.func t.prog f).Func.fname
      | [] -> "?")

let n_insts t = Vec.length t.insts
let inst t i = Vec.get t.insts i
let inst_succs t i = Vec.get t.isucc i
let entry_insts t tid = Vec.get t.entry_tbl tid
let insts_of_gid t g = Option.value ~default:[] (Hashtbl.find_opt t.by_gid g)
let insts_of_thread t tid = Vec.get t.by_thread tid
let find_inst t ~thread ~ctx ~gid = Hashtbl.find_opt t.inst_index (thread, ctx, gid)
let fork_spawnees t iid = Option.value ~default:[] (Hashtbl.find_opt t.forks_at iid)
let join_kills t iid = Option.value ~default:[] (Hashtbl.find_opt t.kills_at iid)

let fully_joins t p c =
  Option.value ~default:false (Hashtbl.find_opt t.full_join_tbl (p, c))

(* Definition 2: sibling [a] happens before sibling [b] when [b]'s spawn is
   only reachable after [a] has been (transitively) joined. Concretely: there
   is an ancestor thread [tau] of [b] containing join instances whose kill
   sets include [a], and within [tau] every path from its entry to the fork
   instance of [b]'s ancestor chain passes such a join. (The kill sets are
   already closed over full joins, so this covers the Figure 8 case where
   [t3 > t2] although [t3] was joined only indirectly through [t1].) *)
let happens_before t a b =
  siblings t a b
  && Iset.exists
       (fun tau ->
         (* the child of tau on the ancestor path of b *)
         let rec chain_child x =
           match (Vec.get t.threads x).par with
           | Some p when p = tau -> Some x
           | Some p -> chain_child p
           | None -> None
         in
         match chain_child b with
         | None -> false
         | Some cb -> (
           let thcb = Vec.get t.threads cb in
           match thcb.fork_gid with
           | None -> false
           | Some fk_gid ->
             let targets = Bitvec.create ~capacity:(n_insts t) () in
             let have_target = ref false in
             Hashtbl.iter
               (fun iid killed ->
                 if (inst t iid).i_thread = tau && List.mem a killed then begin
                   Bitvec.set targets iid;
                   have_target := true
                 end)
               t.kills_at;
             !have_target
             &&
             let fork_insts =
               List.filter
                 (fun iid ->
                   (inst t iid).i_thread = tau && (inst t iid).i_ctx = thcb.spawn_ctx)
                 (insts_of_gid t fk_gid)
             in
             fork_insts <> []
             && List.for_all
                  (fun fk_inst ->
                    List.for_all
                      (fun src ->
                        Fsam_graph.Reach.all_paths_hit ~n:(n_insts t)
                          ~succs:(Vec.get t.isucc) ~src ~targets ~exits:[ fk_inst ])
                      (entry_insts t tau))
                  fork_insts))
       (ancestors t b)

let ctx_store t = t.cs

let pp_stats ppf t =
  Format.fprintf ppf "threads: %d (%d multi-forked), %d statement instances"
    (n_threads t)
    (Vec.fold (fun acc th -> if th.multi then acc + 1 else acc) 0 t.threads)
    (n_insts t)
