open Fsam_ir
module Iset = Fsam_dsa.Iset
module Svfg = Fsam_memssa.Svfg
module Sparse = Fsam_core.Sparse
module A = Fsam_andersen.Solver

exception Fallback of string

type stats = {
  s_units : int;
  s_dirty : int;
  s_seeds : int;
  s_cascades : int;
  s_copied_vars : int;
  s_copied_facts : int;
  s_changed_funcs : int;
}

(* Soundness argument, in one place.

   A work unit of the new solve is {e clean} when it is outside the forward
   closure of the dirty seeds over [Sparse.dep_walk] — the relation with an
   edge u → w whenever processing u can enqueue w. The seeds are chosen so
   that every unit whose {e transfer inputs} could differ from the old run
   is seeded:

   1. every statement of a function whose AST changed (or that is new);
   2. every definition of a variable whose def-site set changed (a def was
      added, removed, or is unmapped) — covering formals whose binding
      callsites changed and ret-vars of changed callees; this rule cascades,
      because seeding a def dirties downstream defs and flips more
      variables to non-copyable;
   3. every call/fork site in a clean function whose resolved callee set
      drifted (the gids match, but the bindings performed there differ);
   4. every SVFG node whose incoming (obj, def) edge set is not the image
      of its old counterpart's — including nodes with no old counterpart —
      plus stores whose racy-object set drifted (flips strong/weak);
   5. every store whose pointer may target an object whose singleton
      verdict flipped (also flips strong/weak);
   6. every image of an old pass-through store ([Sparse.passthrough]) from
      which some definition of a dirty store's pointer is reachable. The
      old facts pre-loaded below are final, second-round facts. A re-run
      unit may read them in the new first round; that only makes its
      first-round facts larger and still bounded by the cold fixpoint, so
      the drain ends at the same place — unless a larger pointer stops
      the solve from marking a dirty store that the cold run marks as
      pass-through. Seeding the stores whose second-round facts could
      reach such a pointer rules that out; the seeding closes like the
      rest, so it iterates with rule 2.

   By induction over the drain: a clean unit's dependency predecessors are
   all clean, its edge structure and bindings are the image of the old
   ones (rules 2–4), and its strong-update environment is unchanged
   (rules 4–5), so the old output facts — translated through the id maps —
   are exactly what re-running it would produce. Those facts are
   pre-loaded ([Sparse.warm]); the dirty units re-run from the seeds and
   the monotone transfers reach the same unique least fixpoint as a cold
   run. A clean store's pointer is clean too (its defs reach it), so its
   pass-through verdict is the old one: the clean pass-through stores are
   handed to the solve as [w_pass], and only dirty stores are re-decided
   (rule 6).
   Over-seeding is always sound — it only costs propagations. *)

let plan ~(diff : Diff.t) ~old_prog ~old_and ~old_svfg ~old_sparse
    ~(old_singleton : int -> bool) ~new_prog ~new_and ~new_svfg
    ~(new_singleton : int -> bool) =
  try
    let n_units = Sparse.unit_count new_prog new_svfg in
    let n_new_vars = Prog.n_vars new_prog in
    let dirty = Array.make (max 1 n_units) false in
    let pending = Queue.create () in
    let n_seeds = ref 0 in
    let seed u =
      if u >= 0 && u < n_units && not dirty.(u) then begin
        dirty.(u) <- true;
        incr n_seeds;
        Queue.push u pending
      end
    in
    (* -- id translation ------------------------------------------------- *)
    let tr_fid f =
      if f >= 0 && f < Array.length diff.Diff.fid_map && diff.Diff.fid_map.(f) >= 0
      then Some diff.Diff.fid_map.(f)
      else None
    in
    let tr_gid g =
      if g >= 0 && g < Array.length diff.Diff.gid_map && diff.Diff.gid_map.(g) >= 0
      then Some diff.Diff.gid_map.(g)
      else None
    in
    (* field objects are mapped lazily and read-only: translating ids must
       never materialise an object the cold pre-phases did not *)
    let obj_memo = Hashtbl.create 256 in
    let rec tr_obj o =
      if o >= 0 && o < Array.length diff.Diff.obj_map && diff.Diff.obj_map.(o) >= 0
      then Some diff.Diff.obj_map.(o)
      else
        match Hashtbl.find_opt obj_memo o with
        | Some r -> r
        | None ->
          let r =
            if o < 0 || o >= Prog.n_objs old_prog then None
            else
              match (Prog.obj old_prog o).Memobj.kind with
              | Memobj.Field { base; field } -> (
                match tr_obj base with
                | Some nb -> Prog.find_field_obj new_prog ~base:nb ~field
                | None -> None)
              | _ -> None
          in
          Hashtbl.add obj_memo o r;
          r
    in
    (* a set whose objects all map to themselves is its own image (the
       rebuild would hash-cons to the same node), so it is not rebuilt *)
    let tr_set s =
      if Iset.for_all (fun o -> tr_obj o = Some o) s then s
      else
        Iset.fold
          (fun o acc ->
            match tr_obj o with
            | Some n -> Iset.add n acc
            | None ->
              raise (Fallback (Printf.sprintf "object %d in a clean fact has no image" o)))
          s Iset.empty
    in
    (* -- SVFG node maps -------------------------------------------------- *)
    let n_old_nodes = Svfg.n_nodes old_svfg in
    let n_new_nodes = Svfg.n_nodes new_svfg in
    let node_map = Array.make (max 1 n_old_nodes) (-1) in
    let node_inv = Array.make (max 1 n_new_nodes) (-1) in
    let node_clash = Array.make (max 1 n_new_nodes) false in
    for on = 0 to n_old_nodes - 1 do
      let image =
        match Svfg.node old_svfg on with
        | Svfg.Stmt_node g ->
          Option.bind (tr_gid g) (fun ng -> Svfg.node_id new_svfg (Svfg.Stmt_node ng))
        | Svfg.Formal_in (f, o) -> (
          match (tr_fid f, tr_obj o) with
          | Some nf, Some no -> Svfg.node_id new_svfg (Svfg.Formal_in (nf, no))
          | _ -> None)
        | Svfg.Formal_out (f, o) -> (
          match (tr_fid f, tr_obj o) with
          | Some nf, Some no -> Svfg.node_id new_svfg (Svfg.Formal_out (nf, no))
          | _ -> None)
        | Svfg.Call_chi (g, o) -> (
          match (tr_gid g, tr_obj o) with
          | Some ng, Some no -> Svfg.node_id new_svfg (Svfg.Call_chi (ng, no))
          | _ -> None)
      in
      match image with
      | Some nn ->
        if node_inv.(nn) >= 0 then node_clash.(nn) <- true
        else begin
          node_inv.(nn) <- on;
          node_map.(on) <- nn
        end
      | None -> ()
    done;
    (* -- rule 1: changed / added functions ------------------------------- *)
    for nfid = 0 to Prog.n_funcs new_prog - 1 do
      if not diff.Diff.clean_new_fid.(nfid) then begin
        let f = Prog.func new_prog nfid in
        for i = 0 to Func.n_stmts f - 1 do
          seed (Prog.gid new_prog ~fid:nfid ~idx:i)
        done
      end
    done;
    (* -- rule 3: callee-set drift at clean call/fork sites ---------------- *)
    let forced = Array.make (max 1 n_new_vars) false in
    for nfid = 0 to Prog.n_funcs new_prog - 1 do
      if diff.Diff.clean_new_fid.(nfid) then begin
        let ofid = diff.Diff.fid_inv.(nfid) in
        let f = Prog.func new_prog nfid in
        Func.iter_stmts f (fun i st ->
            match st with
            | Stmt.Call { ret; _ } | Stmt.Fork { handle = ret; _ } ->
              let old_callees = A.callees old_and ~fid:ofid ~idx:i in
              let mapped = List.filter_map tr_fid old_callees in
              let drifted =
                List.length mapped <> List.length old_callees
                || List.sort_uniq compare mapped
                   <> List.sort_uniq compare (A.callees new_and ~fid:nfid ~idx:i)
              in
              if drifted then begin
                seed (Prog.gid new_prog ~fid:nfid ~idx:i);
                match ret with Some r -> forced.(r) <- true | None -> ()
              end
            | _ -> ())
      end
    done;
    (* -- rule 4: SVFG in-edge drift, racy-set drift ----------------------- *)
    for nn = 0 to n_new_nodes - 1 do
      let u = Sparse.unit_of_svfg_node new_prog new_svfg nn in
      let on = node_inv.(nn) in
      if on < 0 || node_clash.(nn) then seed u
      else begin
        let translated =
          List.map
            (fun (o, d) ->
              match (tr_obj o, if d >= 0 && d < n_old_nodes then Some node_map.(d) else None) with
              | Some no, Some nd when nd >= 0 -> Some (no, nd)
              | _ -> None)
            (Svfg.o_preds old_svfg on)
        in
        if List.exists Option.is_none translated then seed u
        else if
          List.sort compare (List.filter_map Fun.id translated)
          <> List.sort compare (Svfg.o_preds new_svfg nn)
        then seed u
        else
          match Svfg.node new_svfg nn with
          | Svfg.Stmt_node g -> (
            match Prog.stmt_at new_prog g with
            | Stmt.Store _ | Stmt.Fork _ -> (
              let og = diff.Diff.gid_inv.(g) in
              match tr_set (Svfg.racy_objs old_svfg og) with
              | old_racy ->
                if not (Iset.equal old_racy (Svfg.racy_objs new_svfg g)) then seed u
              | exception Fallback _ -> seed u)
            | _ -> ())
          | _ -> ()
      end
    done;
    (* -- rule 5: singleton-verdict drift ---------------------------------- *)
    let flipped = ref Iset.empty in
    for oo = 0 to Prog.n_objs old_prog - 1 do
      match tr_obj oo with
      | Some no ->
        if old_singleton oo <> new_singleton no then flipped := Iset.add no !flipped
      | None -> ()
    done;
    if not (Iset.is_empty !flipped) then
      Prog.iter_stmts new_prog (fun g _ st ->
          match st with
          | Stmt.Store { dst; _ } ->
            if not (Iset.disjoint (A.pt_var new_and dst) !flipped) then seed g
          | _ -> ());
    (* -- rule 2 + rule 6 + closure + cascade ------------------------------ *)
    let old_deps = Sparse.compute_deps old_prog old_and in
    let new_deps = Sparse.compute_deps new_prog new_and in
    let var_inv = Array.make (max 1 n_new_vars) (-1) in
    Array.iteri
      (fun ov nv ->
        if nv >= 0 then
          if var_inv.(nv) >= 0 && var_inv.(nv) <> ov then forced.(nv) <- true
          else var_inv.(nv) <- ov)
      diff.Diff.var_map;
    let defs_equal = Array.make (max 1 n_new_vars) false in
    for nv = 0 to n_new_vars - 1 do
      let ov = var_inv.(nv) in
      if ov >= 0 && not forced.(nv) then begin
        let olds = List.map tr_gid old_deps.Sparse.d_defs.(ov) in
        if List.for_all Option.is_some olds then
          defs_equal.(nv) <-
            List.sort_uniq compare (List.filter_map Fun.id olds)
            = List.sort_uniq compare new_deps.Sparse.d_defs.(nv)
      end
    done;
    let dep = Sparse.dep_walk new_prog new_svfg new_deps in
    let close () =
      while not (Queue.is_empty pending) do
        let u = Queue.pop pending in
        Sparse.iter_dep_succs dep u (fun w ->
            if w < n_units && not dirty.(w) then begin
              dirty.(w) <- true;
              Queue.push w pending
            end)
      done
    in
    (* a variable is copyable iff it is mapped, its def-site set is the
       image of the old one, and every def unit stays clean; otherwise ALL
       its defs must re-run — a clean def never re-runs, so a partial
       re-derivation would silently drop (or, after a deletion, keep) that
       def's contribution. Seeding defs dirties further units and can flip
       more variables, hence the fixpoint loop. *)
    let copyable nv =
      var_inv.(nv) >= 0
      && (not forced.(nv))
      && defs_equal.(nv)
      && List.for_all (fun g -> not dirty.(g)) new_deps.Sparse.d_defs.(nv)
    in
    (* the units from which a definition of a dirty store's pointer is
       reachable: a pass-through store among them could feed second-round
       facts into the pointer of a store the new first round re-decides
       (rule 6) *)
    let old_pass = List.filter_map tr_gid (Sparse.passthrough old_sparse) in
    let feeds_dirty_pointer () =
      let reach = Array.make (max 1 n_units) false in
      let q = Queue.create () in
      let visit u =
        if u < n_units && not reach.(u) then begin
          reach.(u) <- true;
          Queue.push u q
        end
      in
      Prog.iter_stmts new_prog (fun g _ st ->
          match st with
          | Stmt.Store { dst; _ } when dirty.(g) -> List.iter visit new_deps.Sparse.d_defs.(dst)
          | _ -> ());
      while not (Queue.is_empty q) do
        Sparse.iter_dep_preds dep (Queue.pop q) visit
      done;
      reach
    in
    let cascades = ref 0 in
    close ();
    let stable = ref false in
    while not !stable do
      stable := true;
      incr cascades;
      for nv = 0 to n_new_vars - 1 do
        if not (copyable nv) then
          List.iter
            (fun g ->
              if not dirty.(g) then begin
                stable := false;
                seed g
              end)
            new_deps.Sparse.d_defs.(nv)
      done;
      close ();
      let reach = feeds_dirty_pointer () in
      List.iter
        (fun g ->
          if reach.(g) && not dirty.(g) then begin
            stable := false;
            seed g
          end)
        old_pass;
      close ()
    done;
    (* -- assemble the warm start ------------------------------------------ *)
    let w_ptv = Array.make (max 1 n_new_vars) Iset.empty in
    let copied_vars = ref 0 in
    for nv = 0 to n_new_vars - 1 do
      if copyable nv then begin
        let s = Sparse.pt_top old_sparse var_inv.(nv) in
        if not (Iset.is_empty s) then begin
          w_ptv.(nv) <- tr_set s;
          incr copied_vars
        end
      end
    done;
    let w_pto = ref [] in
    let copied_facts = ref 0 in
    Sparse.iter_pto old_sparse (fun ~node ~obj set ->
        if node >= 0 && node < n_old_nodes && node_map.(node) >= 0 then begin
          let nn = node_map.(node) in
          let u = Sparse.unit_of_svfg_node new_prog new_svfg nn in
          if not dirty.(u) then
            match tr_obj obj with
            | Some no ->
              if not (Iset.is_empty set) then begin
                w_pto := ((nn, no), tr_set set) :: !w_pto;
                incr copied_facts
              end
            | None ->
              raise
                (Fallback
                   (Printf.sprintf "object %d of a clean memory fact has no image" obj))
        end);
    let w_units = ref [] in
    let n_dirty = ref 0 in
    for u = n_units - 1 downto 0 do
      if dirty.(u) then begin
        incr n_dirty;
        w_units := u :: !w_units
      end
    done;
    Ok
      ( {
          Sparse.w_ptv;
          w_pto = !w_pto;
          w_units = !w_units;
          w_pass = List.filter (fun g -> not dirty.(g)) old_pass;
          w_deps = Some new_deps;
        },
        {
          s_units = n_units;
          s_dirty = !n_dirty;
          s_seeds = !n_seeds;
          s_cascades = !cascades;
          s_copied_vars = !copied_vars;
          s_copied_facts = !copied_facts;
          s_changed_funcs = diff.Diff.n_changed;
        } )
  with Fallback msg -> Error msg
