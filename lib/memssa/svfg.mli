open Fsam_ir

(** The sparse value-flow (def-use) graph over address-taken objects — the
    core representation of the sparse analysis (paper §2.2, §3.2, §3.3).

    {b Thread-oblivious edges} (paper §3.2) come from an interprocedural
    memory-SSA construction driven by the pre-analysis: loads and stores are
    annotated with the objects they may access (mu/chi); call and fork sites
    carry chi nodes for their callees' mod sets ({e weak} at forks, which
    yields the fork-bypass edges of Step 2); handled join sites carry chi
    nodes fed by the spawnee's formal-out defs (the join edges of Step 3);
    per-object def-use chains are then derived with a sparse per-object
    reaching-definitions pass over each relevant function (in the spirit of
    the sparse evaluation graphs the paper traces this idea to).

    {b Thread-aware edges} (paper §3.3, rule [THREAD-VF]) connect MHP
    store-load and store-store statement pairs with a common pre-analysis
    points-to target, filtered by the lock analysis' non-interference pairs
    (Definitions 4–6). The [config] selects the paper's ablations:
    No-Interleaving (PCG instead of the interleaving analysis),
    No-Value-Flow (common-target requirement dropped), No-Lock (filter
    disabled). *)

type node =
  | Stmt_node of int  (** statement gid: loads, stores, fork-handle chis *)
  | Formal_in of int * int  (** (fid, obj): memory state at function entry *)
  | Formal_out of int * int  (** (fid, obj): memory state at function exit *)
  | Call_chi of int * int  (** (callsite gid, obj): weak def at a call/fork *)

type config = {
  use_interleaving : bool;  (** false = the paper's No-Interleaving (PCG) *)
  use_value_flow : bool;  (** false = the paper's No-Value-Flow *)
  use_lock : bool;  (** false = the paper's No-Lock *)
}

val default_config : config

type t

val build :
  ?config:config ->
  ?prov:Fsam_prov.t ->
  Prog.t ->
  Fsam_andersen.Solver.t ->
  Fsam_andersen.Modref.t ->
  Fsam_mta.Threads.t ->
  Fsam_mta.Mhp.t ->
  Fsam_mta.Locks.t ->
  Fsam_mta.Pcg.t ->
  t

val n_nodes : t -> int
val node : t -> int -> node
val node_id : t -> node -> int option
val o_preds : t -> int -> (int * int) list
(** [(obj, def node)] pairs feeding a node. *)

val o_succs : t -> int -> (int * int) list
val n_edges : t -> int
val n_thread_aware_edges : t -> int

(** Objects for which the given store statement participates in an
    interfering (post-lock-filter) MHP pair; strong updates on these objects
    are suppressed — the interleaving may order the racing accesses either
    way, so a kill could erase a concurrent thread's later effect. *)
val racy_objs : t -> int -> Fsam_dsa.Iset.t

val iter_unprotected_pairs : t -> (obj:int -> store:int -> access:int -> unit) -> unit
(** Every kept [THREAD-VF] pair [(obj, store, access)] that at least one
    MHP instance pair leaves without a common lock — the verdicts behind
    {!racy_objs}, in no particular order. Each ablation widens the set
    (PCG in place of MHP, no common target, no lock filter); it is empty
    when the thread-aware stage is off. [Races.detect] filters it. *)

val prog : t -> Prog.t

val digest : t -> string
(** Hex digest of the graph's canonical structural fingerprint (edge
    counts, sorted structural edge triples, racy-object sets, sorted
    unprotected pair rows). Keys are structural — gids, fids and object
    ids, never intern-order node indices — so an incrementally patched
    graph digests equal to a cold rebuild iff they denote the same graph.
    Used by the serve differential mode and the snapshot restore check. *)

val node_key : t -> int -> string
(** Stable textual key of a node's structure (gid / fid / object id, never
    the intern-order index) — the key the serve engine uses to compare and
    serialize per-node results across generations whose graphs interned
    nodes in different orders. *)

(* Incremental patching (fsam serve warm edits) --------------------------- *)

type patch_stats = {
  ps_dirty_fns : int;  (** functions whose oblivious dataflow was re-run *)
  ps_dirty_objs : int;  (** objects whose [THREAD-VF] pair space was re-run *)
  ps_removed : int;  (** oblivious edges retracted *)
  ps_added : int;  (** oblivious edges re-derived (including promotions) *)
}

val patch :
  t ->
  ?config:config ->
  prog:Prog.t ->
  old_ast:Fsam_andersen.Solver.t ->
  ast:Fsam_andersen.Solver.t ->
  old_mr:Fsam_andersen.Modref.t ->
  mr:Fsam_andersen.Modref.t ->
  tm:Fsam_mta.Threads.t ->
  mhp:Fsam_mta.Mhp.t ->
  lk:Fsam_mta.Locks.t ->
  pcg:Fsam_mta.Pcg.t ->
  edited_fids:int list ->
  unit ->
  (t * patch_stats, string) result
(** Splice the previous generation's SVFG into the new generation's in
    place of a cold rebuild: retract the oblivious edges owned by dirty
    functions (edited, or with drifted points-to / mod-ref / join-row
    inputs), re-run the per-fn oblivious construction for those functions
    only, then re-run [THREAD-VF] discovery for exactly the objects whose
    oblivious rows or access lists changed. The input graph is not
    mutated; the result's structural digest is byte-identical to a cold
    [build] of the new program. Preconditions (established by the serve
    engine): identical statement gids and object tables across the
    generations and a reused thread model / MHP / lock analysis. [Error
    reason] when a detectable precondition fails — the caller falls back
    to a cold rebuild and counts the reason. *)

(* Provenance (populated only when [build ~prov] was given) --------------- *)

(** Edge kinds for {!edge_kind}: how a def-use edge came to exist. *)

val k_oblivious : int  (** thread-oblivious reaching-definition edge *)

val k_fork_bypass : int  (** paper §3.2 step 2: defs bypassing a fork *)

val k_join : int  (** paper §3.2 step 3: spawnee formal-out via a join *)

val k_thread_vf : int  (** paper §3.3 rule [THREAD-VF] *)

(** Kind of the given edge; {!k_oblivious} when unknown or when built
    without a recorder. The [THREAD-VF] pair verdicts themselves (kept /
    lock-filtered / no-MHP, space [Fsam_prov.sp_pair]) live in the recorder
    passed to [build]. *)
val edge_kind : t -> src:int -> obj:int -> dst:int -> int
val iter_nodes : t -> (int -> node -> unit) -> unit
val pp_stats : Format.formatter -> t -> unit
