open Fsam_dsa
module Obs = Fsam_obs

(* Per-thread instance group of one gid: the instances of the gid executed
   by [g_tid], and the union of their interference facts. The union is exact
   for the statement-level queries because the two membership conditions of
   [mhp_inst] constrain the two instances independently: some pair (i, j)
   with t2 ∈ I(i) and t1 ∈ I(j) exists iff t2 appears in the facts-union of
   t1's group and t1 appears in the facts-union of t2's group. *)
type group = { g_tid : int; g_insts : int list; g_facts : Iset.t }

type summary = {
  sm_own : Iset.t; (* threads executing some instance of the gid *)
  sm_own_multi : Iset.t; (* the multi-forked subset of [sm_own] *)
  sm_groups : group list;
}

let empty_summary = { sm_own = Iset.empty; sm_own_multi = Iset.empty; sm_groups = [] }

type t = {
  tm : Threads.t;
  facts : Iset.t array; (* per instance: I at the statement *)
  summaries : (int, summary) Hashtbl.t; (* gid -> summary index *)
  mutable iterations : int;
}

type stats = {
  mutable stmt_queries : int;
  mutable pair_queries : int;
  mutable thread_checks : int; (* indexed layer: per-group / per-thread probes *)
  mutable inst_checks : int; (* indexed layer: per-instance fact probes *)
}

let fresh_stats () = { stmt_queries = 0; pair_queries = 0; thread_checks = 0; inst_checks = 0 }

let interference t i = t.facts.(i)
let threads t = t.tm
let n_iterations t = t.iterations

let total_fact_size t = Array.fold_left (fun acc s -> acc + Iset.cardinal s) 0 t.facts

(* Group the instances of every gid by thread and union their facts.
   [insts_of_gid] enumerates a deterministic order, so the group order — and
   with it the pair order of [mhp_pairs_inst] — is deterministic too. *)
let build_summaries tm facts =
  let tbl = Hashtbl.create 256 in
  let n = Threads.n_insts tm in
  for iid = 0 to n - 1 do
    let gid = (Threads.inst tm iid).Threads.i_gid in
    if not (Hashtbl.mem tbl gid) then begin
      let insts = Threads.insts_of_gid tm gid in
      let rec insert groups tid i =
        match groups with
        | [] -> [ { g_tid = tid; g_insts = [ i ]; g_facts = facts.(i) } ]
        | g :: rest when g.g_tid = tid ->
          { g with g_insts = i :: g.g_insts; g_facts = Iset.union g.g_facts facts.(i) } :: rest
        | g :: rest -> g :: insert rest tid i
      in
      let groups =
        List.fold_left (fun gs i -> insert gs (Threads.inst tm i).Threads.i_thread i) [] insts
      in
      let groups = List.map (fun g -> { g with g_insts = List.rev g.g_insts }) groups in
      let own = List.fold_left (fun s g -> Iset.add g.g_tid s) Iset.empty groups in
      let own_multi = Iset.filter (fun tid -> Threads.is_multi tm tid) own in
      Hashtbl.replace tbl gid
        { sm_own = own; sm_own_multi = own_multi; sm_groups = groups }
    end
  done;
  (* counts the summaries actually (re)computed: the serve warm path reuses
     the whole summary index verbatim and adds zero here *)
  Obs.Metrics.(add (counter "mhp.summaries_computed") (Hashtbl.length tbl));
  tbl

let compute tm =
  let n = Threads.n_insts tm in
  let facts = Array.make n Iset.empty in
  let queue = Queue.create () in
  let queued = Bitvec.create ~capacity:n () in
  let peak = ref 0 in
  let push i =
    if Bitvec.set_if_unset queued i then begin
      Queue.add i queue;
      let depth = Queue.length queue in
      if depth > !peak then peak := depth
    end
  in
  let add i set =
    let u = Iset.union facts.(i) set in
    if not (u == facts.(i)) then begin
      facts.(i) <- u;
      push i
    end
  in
  Obs.Span.with_ ~name:"mhp.seed" (fun () ->
      (* Seeds. *)
      let nt = Threads.n_threads tm in
      for tid = 0 to nt - 1 do
        (* [I-DESCENDANT] second conclusion: ancestors at the entry *)
        let anc = Threads.ancestors tm tid in
        if not (Iset.is_empty anc) then
          List.iter (fun e -> add e anc) (Threads.entry_insts tm tid)
      done;
      (* [I-SIBLING] *)
      for a = 0 to nt - 1 do
        for b = a + 1 to nt - 1 do
          if
            Threads.siblings tm a b
            && (not (Threads.happens_before tm a b))
            && not (Threads.happens_before tm b a)
          then begin
            List.iter (fun e -> add e (Iset.singleton b)) (Threads.entry_insts tm a);
            List.iter (fun e -> add e (Iset.singleton a)) (Threads.entry_insts tm b)
          end
        done
      done;
      (* [I-DESCENDANT] first conclusion is seeded flow-sensitively below: a
         fork's out-fact includes the spawned descendant closure even when the
         in-fact is empty, so prime every fork instance. *)
      for iid = 0 to n - 1 do
        match Threads.fork_spawnees tm iid with [] -> () | _ -> push iid
      done);
  (* Per-instance transfer sets, built once: the fork out-fact adds [gen]
     (spawnees plus their descendant closures), a handled join subtracts
     [kill] — one interned [Iset.diff]/[Iset.union] per visit instead of a
     per-element fold. *)
  let gen = Array.make n Iset.empty in
  let kill = Array.make n Iset.empty in
  for iid = 0 to n - 1 do
    (match Threads.fork_spawnees tm iid with
    | [] -> ()
    | spawnees ->
      gen.(iid) <-
        List.fold_left
          (fun s sp -> Iset.add sp (Iset.union s (Threads.descendants tm sp)))
          Iset.empty spawnees);
    match Threads.join_kills tm iid with
    | [] -> ()
    | kills -> kill.(iid) <- Iset.of_list kills
  done;
  let t = { tm; facts; summaries = Hashtbl.create 0; iterations = 0 } in
  (* Fixpoint. *)
  Obs.Span.with_ ~name:"mhp.fixpoint" (fun () ->
      while not (Queue.is_empty queue) do
        let iid = Queue.pop queue in
        Bitvec.clear queued iid;
        t.iterations <- t.iterations + 1;
        let fact = facts.(iid) in
        let out =
          if not (Iset.is_empty gen.(iid)) then Iset.union fact gen.(iid)
          else if not (Iset.is_empty kill.(iid)) then Iset.diff fact kill.(iid)
          else fact
        in
        List.iter (fun j -> add j out) (Threads.inst_succs tm iid)
      done);
  let summaries = Obs.Span.with_ ~name:"mhp.summaries" (fun () -> build_summaries tm facts) in
  let t = { t with summaries } in
  Obs.Metrics.(add (counter "mhp.iterations") t.iterations);
  Obs.Metrics.(set_max (gauge "mhp.worklist_peak") !peak);
  Obs.Metrics.(set (gauge "mhp.interference_facts") (total_fact_size t));
  Obs.Metrics.(set (gauge "mhp.summary_gids") (Hashtbl.length summaries));
  Obs.Metrics.(
    set (gauge "mhp.summary_groups")
      (Hashtbl.fold (fun _ sm acc -> acc + List.length sm.sm_groups) summaries 0));
  t

let mhp_inst t i j =
  let a = Threads.inst t.tm i and b = Threads.inst t.tm j in
  if a.Threads.i_thread = b.Threads.i_thread then Threads.is_multi t.tm a.Threads.i_thread
  else
    Iset.mem b.Threads.i_thread t.facts.(i) && Iset.mem a.Threads.i_thread t.facts.(j)

(* -- Indexed statement-level queries -------------------------------------- *)

let summary t gid = Option.value ~default:empty_summary (Hashtbl.find_opt t.summaries gid)

let group_of sm tid = List.find_opt (fun g -> g.g_tid = tid) sm.sm_groups

let count st f n = match st with Some s -> f s n | None -> ()
let bump_stmt s n = s.stmt_queries <- s.stmt_queries + n
let bump_pair s n = s.pair_queries <- s.pair_queries + n
let bump_thread s n = s.thread_checks <- s.thread_checks + n
let bump_inst s n = s.inst_checks <- s.inst_checks + n

let mhp_stmt ?stats t g1 g2 =
  let s1 = summary t g1 and s2 = summary t g2 in
  count stats bump_stmt 1;
  (* a multi-forked thread appearing on both sides interleaves with itself *)
  (not (Iset.disjoint s1.sm_own_multi s2.sm_own))
  || List.exists
       (fun g ->
         let t1 = g.g_tid in
         count stats bump_thread 1;
         (* threads t2 ≠ t1 that own instances of g2 and that some instance
            of g1 under t1 has in its fact; for each, the reverse condition
            t1 ∈ I(j) is independent, so group facts-unions decide exactly *)
         Iset.exists
           (fun t2 ->
             count stats bump_thread 1;
             t2 <> t1
             &&
             match group_of s2 t2 with
             | Some g2 -> Iset.mem t1 g2.g_facts
             | None -> false)
           (Iset.inter s2.sm_own g.g_facts))
       s1.sm_groups

let mhp_pairs_inst ?stats t g1 g2 =
  let s1 = summary t g1 and s2 = summary t g2 in
  count stats bump_pair 1;
  let acc = ref [] in
  List.iter
    (fun g ->
      let t1 = g.g_tid in
      (* same-thread pairs exist only for a multi-forked thread *)
      if Threads.is_multi t.tm t1 then
        (match group_of s2 t1 with
        | Some g2 ->
          List.iter (fun i -> List.iter (fun j -> acc := (i, j) :: !acc) g2.g_insts) g.g_insts
        | None -> ());
      (* cross-thread pairs, only against threads passing the summary test *)
      Iset.iter
        (fun t2 ->
          count stats bump_thread 1;
          if t2 <> t1 then
            match group_of s2 t2 with
            | Some g2 when Iset.mem t1 g2.g_facts ->
              let is' =
                List.filter
                  (fun i ->
                    count stats bump_inst 1;
                    Iset.mem t2 t.facts.(i))
                  g.g_insts
              in
              if is' <> [] then begin
                let js' =
                  List.filter
                    (fun j ->
                      count stats bump_inst 1;
                      Iset.mem t1 t.facts.(j))
                    g2.g_insts
                in
                List.iter (fun i -> List.iter (fun j -> acc := (i, j) :: !acc) js') is'
              end
            | _ -> ())
        (Iset.inter s2.sm_own g.g_facts))
    s1.sm_groups;
  List.rev !acc

(* First instance pair witnessing that two statements may happen in
   parallel, in the deterministic [mhp_pairs_inst] order. *)
let witness_pair t g1 g2 =
  match mhp_pairs_inst t g1 g2 with [] -> None | p :: _ -> Some p
