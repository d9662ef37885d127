open Fsam_graph
open Fsam_dsa

let mk edges =
  let g = Digraph.create () in
  List.iter (fun (u, v) -> Digraph.add_edge g u v) edges;
  g

(* the algorithms walk a successor function; the fixtures supply a
   Digraph's, and predecessors by scanning its edges *)
let n = Digraph.n_nodes
let succs = Digraph.succs

let preds g v =
  let acc = ref [] in
  Digraph.iter_edges g (fun u w -> if w = v then acc := u :: !acc);
  List.rev !acc

let reaches g u v = Bitvec.get (Reach.from ~n:(n g) ~succs:(succs g) u) v
let scc g = Scc.compute ~n:(n g) ~succs:(succs g)
let is_trivial r g v = Scc.is_trivial r ~succs:(succs g) v
let dominance g = Dominance.compute ~n:(n g) ~succs:(succs g) ~preds:(preds g) ~entry:0

let all_paths_hit g ~src ~targets ~exits =
  Reach.all_paths_hit ~n:(n g) ~succs:(succs g) ~src ~targets ~exits

let test_digraph_basics () =
  let g = mk [ (0, 1); (1, 2); (0, 2); (2, 0) ] in
  Alcotest.(check int) "nodes" 3 (Digraph.n_nodes g);
  Alcotest.(check (list int)) "succs 0" [ 1; 2 ] (Digraph.succs g 0);
  Alcotest.(check (list int)) "preds 2" [ 0; 1 ] (preds g 2);
  Digraph.add_edge g 0 1;
  Alcotest.(check (list int)) "no parallel edges" [ 1; 2 ] (Digraph.succs g 0);
  Alcotest.(check bool) "has edge" true (Digraph.has_edge g 2 0);
  Alcotest.(check bool) "no reverse edge" false (Digraph.has_edge g 1 0);
  Digraph.ensure_node g 5;
  Alcotest.(check int) "ensure_node grows" 6 (Digraph.n_nodes g);
  Alcotest.(check (list int)) "isolated node" [] (Digraph.succs g 5)

let test_scc_simple () =
  (* 0 -> 1 <-> 2, 1 -> 3 *)
  let g = mk [ (0, 1); (1, 2); (2, 1); (1, 3) ] in
  let r = scc g in
  Alcotest.(check bool) "1,2 same comp" true (r.Scc.comp_of.(1) = r.Scc.comp_of.(2));
  Alcotest.(check bool) "0 alone" true (r.Scc.comp_of.(0) <> r.Scc.comp_of.(1));
  Alcotest.(check bool) "3 alone" true (r.Scc.comp_of.(3) <> r.Scc.comp_of.(1));
  (* topological property: edge u->v across comps means comp u > comp v *)
  Digraph.iter_edges g (fun u v ->
      if r.Scc.comp_of.(u) <> r.Scc.comp_of.(v) then
        Alcotest.(check bool) "topo numbering" true (r.Scc.comp_of.(u) > r.Scc.comp_of.(v)));
  Alcotest.(check bool) "trivial" true (is_trivial r g 0);
  Alcotest.(check bool) "non-trivial" false (is_trivial r g 1)

let test_scc_self_loop () =
  let g = mk [ (0, 0); (0, 1) ] in
  let r = scc g in
  Alcotest.(check bool) "self loop non-trivial" false (is_trivial r g 0);
  Alcotest.(check bool) "plain node trivial" true (is_trivial r g 1)

let test_reach () =
  let g = mk [ (0, 1); (1, 2); (3, 4) ] in
  Alcotest.(check bool) "0 reaches 2" true (reaches g 0 2);
  Alcotest.(check bool) "0 not 4" false (reaches g 0 4);
  Alcotest.(check bool) "reflexive" true (reaches g 4 4);
  (* backward reachability is forward reachability over the predecessors *)
  let back = Reach.from ~n:(n g) ~succs:(preds g) 2 in
  Alcotest.(check bool) "backward 0" true (Bitvec.get back 0);
  Alcotest.(check bool) "backward not 3" false (Bitvec.get back 3)

let test_all_paths_hit () =
  (* 0 -> 1 -> 3 (exit); 0 -> 2 -> 3. targets = {1}: path through 2 avoids. *)
  let g = mk [ (0, 1); (1, 3); (0, 2); (2, 3) ] in
  let t1 = Bitvec.create () in
  Bitvec.set t1 1;
  Alcotest.(check bool) "avoidable target" false
    (all_paths_hit g ~src:0 ~targets:t1 ~exits:[ 3 ]);
  let t2 = Bitvec.create () in
  Bitvec.set t2 1;
  Bitvec.set t2 2;
  Alcotest.(check bool) "both branches covered" true
    (all_paths_hit g ~src:0 ~targets:t2 ~exits:[ 3 ]);
  (* src itself a target *)
  let t3 = Bitvec.create () in
  Bitvec.set t3 0;
  Alcotest.(check bool) "src is target" true
    (all_paths_hit g ~src:0 ~targets:t3 ~exits:[ 3 ])

let test_dominance_diamond () =
  (* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
  let g = mk [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let d = dominance g in
  Alcotest.(check int) "idom 3 = 0" 0 (Dominance.idom d 3);
  Alcotest.(check int) "idom 1 = 0" 0 (Dominance.idom d 1);
  Alcotest.(check bool) "0 dominates 3" true (Dominance.dominates d 0 3);
  Alcotest.(check bool) "1 not dominates 3" false (Dominance.dominates d 1 3);
  Alcotest.(check bool) "reflexive" true (Dominance.dominates d 2 2);
  Alcotest.(check (list int)) "DF(1) = {3}" [ 3 ] (Dominance.frontier d 1);
  Alcotest.(check (list int)) "DF(2) = {3}" [ 3 ] (Dominance.frontier d 2);
  Alcotest.(check (list int)) "DF(0) = {}" [] (Dominance.frontier d 0)

let test_dominance_loop () =
  (* 0 -> 1 -> 2 -> 1, 1 -> 3 *)
  let g = mk [ (0, 1); (1, 2); (2, 1); (1, 3) ] in
  let d = dominance g in
  Alcotest.(check int) "idom 2" 1 (Dominance.idom d 2);
  Alcotest.(check int) "idom 3" 1 (Dominance.idom d 3);
  (* loop header 1 is in its own frontier via back edge *)
  Alcotest.(check (list int)) "DF(2) = {1}" [ 1 ] (Dominance.frontier d 2);
  Alcotest.(check bool) "DF(1) contains 1" true (List.mem 1 (Dominance.frontier d 1))

let test_dominance_unreachable () =
  let g = mk [ (0, 1); (2, 1) ] in
  (* 2 unreachable from 0 *)
  let d = dominance g in
  Alcotest.(check bool) "unreachable" false (Dominance.reachable d 2);
  Alcotest.(check bool) "reachable" true (Dominance.reachable d 1)

(* Property: reachability computed by Reach matches Floyd–Warshall closure. *)
let gen_graph =
  QCheck.(list_of_size Gen.(0 -- 25) (pair (int_bound 9) (int_bound 9)))

let prop_reach_model =
  QCheck.Test.make ~name:"reach vs transitive closure" gen_graph (fun edges ->
      let g = mk ((0, 0) :: edges) in
      (* (0,0) forces node 0 to exist *)
      let n = n g in
      let m = Array.make_matrix n n false in
      for i = 0 to n - 1 do
        m.(i).(i) <- true
      done;
      List.iter (fun (u, v) -> m.(u).(v) <- true) edges;
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if m.(i).(k) && m.(k).(j) then m.(i).(j) <- true
          done
        done
      done;
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if reaches g i j <> m.(i).(j) then ok := false
        done
      done;
      !ok)

let prop_scc_model =
  QCheck.Test.make ~name:"scc vs mutual reachability" gen_graph (fun edges ->
      let g = mk ((0, 0) :: edges) in
      let n = n g in
      let r = scc g in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let mutual = reaches g i j && reaches g j i in
          if (r.Scc.comp_of.(i) = r.Scc.comp_of.(j)) <> mutual then ok := false
        done
      done;
      !ok)

let prop_dominance_model =
  QCheck.Test.make ~name:"dominates vs path enumeration" gen_graph (fun edges ->
      (* brute force: a dominates b iff removing a makes b unreachable *)
      let g = mk ((0, 0) :: edges) in
      let n = n g in
      let d = dominance g in
      let reachable_without blocked target =
        let seen = Array.make n false in
        let rec go u =
          if u = target then true
          else
            List.exists
              (fun v ->
                (not seen.(v)) && v <> blocked
                &&
                (seen.(v) <- true;
                 go v))
              (Digraph.succs g u)
        in
        if target = 0 then true else if blocked = 0 then false else go 0
      in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if Dominance.reachable d a && Dominance.reachable d b && a <> b then begin
            let dom = Dominance.dominates d a b in
            let brute = not (reachable_without a b) in
            if dom <> brute then ok := false
          end
        done
      done;
      !ok)

let prop_scc_numbering =
  QCheck.Test.make ~name:"scc numbering is reverse topological" gen_graph (fun edges ->
      let g = mk ((0, 0) :: edges) in
      let r = scc g in
      (* components listed from n_comps - 1 down to 0 form a topological
         order of the condensation, each exactly once *)
      let ok = ref (Array.for_all (fun c -> c >= 0 && c < r.Scc.n_comps) r.Scc.comp_of) in
      Digraph.iter_edges g (fun u v ->
          if r.Scc.comp_of.(u) <> r.Scc.comp_of.(v) && r.Scc.comp_of.(u) < r.Scc.comp_of.(v)
          then ok := false);
      Array.iteri
        (fun c members ->
          if c < r.Scc.n_comps then
            List.iter (fun v -> if r.Scc.comp_of.(v) <> c then ok := false) members)
        r.Scc.comps;
      !ok)

let prop_dominance_unordered =
  QCheck.Test.make ~name:"dominance ignores edge-list order and repeats" gen_graph
    (fun edges ->
      (* the CFG's successor lists are unordered and may repeat an edge
         after simplification: dominators, frontiers and tree children
         must not depend on that *)
      let g = mk ((0, 0) :: edges) in
      let n = n g in
      let shuffled l = List.rev_append l l in
      let d = dominance g in
      let d' =
        Dominance.compute ~n
          ~succs:(fun v -> shuffled (succs g v))
          ~preds:(fun v -> shuffled (preds g v))
          ~entry:0
      in
      List.for_all
        (fun v ->
          Dominance.idom d v = Dominance.idom d' v
          && Dominance.frontier d v = Dominance.frontier d' v
          && Dominance.children d v = Dominance.children d' v)
        (List.init n Fun.id))

let suite =
  [
    Alcotest.test_case "digraph basics" `Quick test_digraph_basics;
    QCheck_alcotest.to_alcotest prop_scc_numbering;
    QCheck_alcotest.to_alcotest prop_dominance_unordered;
    Alcotest.test_case "scc simple" `Quick test_scc_simple;
    Alcotest.test_case "scc self loop" `Quick test_scc_self_loop;
    Alcotest.test_case "reachability" `Quick test_reach;
    Alcotest.test_case "all_paths_hit" `Quick test_all_paths_hit;
    Alcotest.test_case "dominance diamond" `Quick test_dominance_diamond;
    Alcotest.test_case "dominance loop" `Quick test_dominance_loop;
    Alcotest.test_case "dominance unreachable" `Quick test_dominance_unreachable;
    QCheck_alcotest.to_alcotest prop_reach_model;
    QCheck_alcotest.to_alcotest prop_scc_model;
    QCheck_alcotest.to_alcotest prop_dominance_model;
  ]
