(* Reference for [Sparse.dep_walk]: the unit dependency relation
   materialised as a [Digraph] over every work unit, edge by edge from the
   definition. A property test checks that the walk enumerates exactly
   this edge set forward and its transpose backward. *)

open Fsam_core.Sparse
module Svfg = Fsam_memssa.Svfg

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
