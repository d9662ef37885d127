open Fsam_dsa

let set = Alcotest.testable Iset.pp Iset.equal

let test_basics () =
  let s = Iset.of_list [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  Alcotest.(check int) "cardinal" 7 (Iset.cardinal s);
  Alcotest.(check (list int)) "sorted elements" [ 1; 2; 3; 4; 5; 6; 9 ] (Iset.elements s);
  Alcotest.(check bool) "mem 4" true (Iset.mem 4 s);
  Alcotest.(check bool) "mem 7" false (Iset.mem 7 s);
  Alcotest.(check set) "remove" (Iset.of_list [ 1; 2; 3; 4; 5; 6 ]) (Iset.remove 9 s);
  Alcotest.(check set) "remove absent" s (Iset.remove 100 s);
  Alcotest.(check bool) "empty" true (Iset.is_empty Iset.empty);
  Alcotest.(check (option int)) "choose empty" None (Iset.choose Iset.empty);
  Alcotest.(check (option int)) "min_elt" (Some 1) (Iset.min_elt s)

let test_algebra () =
  let a = Iset.of_list [ 1; 2; 3; 4 ] and b = Iset.of_list [ 3; 4; 5; 6 ] in
  Alcotest.(check set) "union" (Iset.of_list [ 1; 2; 3; 4; 5; 6 ]) (Iset.union a b);
  Alcotest.(check set) "inter" (Iset.of_list [ 3; 4 ]) (Iset.inter a b);
  Alcotest.(check set) "diff" (Iset.of_list [ 1; 2 ]) (Iset.diff a b);
  Alcotest.(check bool) "subset yes" true (Iset.subset (Iset.of_list [ 2; 3 ]) a);
  Alcotest.(check bool) "subset no" false (Iset.subset b a);
  Alcotest.(check bool) "disjoint no" false (Iset.disjoint a b);
  Alcotest.(check bool) "disjoint yes" true (Iset.disjoint a (Iset.of_list [ 7; 8 ]))

let test_union_physical_identity () =
  let a = Iset.of_list [ 1; 5; 9; 200; 4096 ] in
  let b = Iset.of_list [ 5; 200 ] in
  Alcotest.(check bool) "union a b == a when b subset a" true (Iset.union a b == a);
  Alcotest.(check bool) "union a empty == a" true (Iset.union a Iset.empty == a);
  let leaf = Iset.singleton 5 in
  Alcotest.(check bool) "leaf union leaf" true (Iset.equal leaf (Iset.union leaf (Iset.singleton 5)))

let test_large_sparse () =
  let s = ref Iset.empty in
  for i = 0 to 999 do
    s := Iset.add (i * 1021) !s
  done;
  Alcotest.(check int) "cardinal 1000" 1000 (Iset.cardinal !s);
  for i = 0 to 999 do
    assert (Iset.mem (i * 1021) !s)
  done;
  Alcotest.(check bool) "no spurious member" false (Iset.mem 1 !s)

(* Property tests against a reference model (sorted int lists). *)

let model_of s = Iset.elements s
let sorted_dedup l = List.sort_uniq compare l

let gen_list = QCheck.(list_of_size Gen.(0 -- 40) (int_bound 200))

let prop_of_list_elements =
  QCheck.Test.make ~name:"of_list/elements round-trip" gen_list (fun l ->
      model_of (Iset.of_list l) = sorted_dedup l)

let prop_union =
  QCheck.Test.make ~name:"union agrees with model" (QCheck.pair gen_list gen_list)
    (fun (a, b) ->
      model_of (Iset.union (Iset.of_list a) (Iset.of_list b)) = sorted_dedup (a @ b))

let prop_inter =
  QCheck.Test.make ~name:"inter agrees with model" (QCheck.pair gen_list gen_list)
    (fun (a, b) ->
      let sa = sorted_dedup a and sb = sorted_dedup b in
      model_of (Iset.inter (Iset.of_list a) (Iset.of_list b))
      = List.filter (fun x -> List.mem x sb) sa)

let prop_diff =
  QCheck.Test.make ~name:"diff agrees with model" (QCheck.pair gen_list gen_list)
    (fun (a, b) ->
      let sa = sorted_dedup a and sb = sorted_dedup b in
      model_of (Iset.diff (Iset.of_list a) (Iset.of_list b))
      = List.filter (fun x -> not (List.mem x sb)) sa)

let prop_subset =
  QCheck.Test.make ~name:"subset agrees with model" (QCheck.pair gen_list gen_list)
    (fun (a, b) ->
      let sa = sorted_dedup a and sb = sorted_dedup b in
      Iset.subset (Iset.of_list a) (Iset.of_list b)
      = List.for_all (fun x -> List.mem x sb) sa)

let prop_union_idempotent_physical =
  QCheck.Test.make ~name:"union s s == s physically" gen_list (fun l ->
      let s = Iset.of_list l in
      Iset.union s s == s)

let prop_remove =
  QCheck.Test.make ~name:"remove agrees with model" (QCheck.pair QCheck.(int_bound 200) gen_list)
    (fun (x, l) ->
      model_of (Iset.remove x (Iset.of_list l))
      = List.filter (fun y -> y <> x) (sorted_dedup l))

let prop_disjoint =
  QCheck.Test.make ~name:"disjoint iff empty inter" (QCheck.pair gen_list gen_list)
    (fun (a, b) ->
      let sa = Iset.of_list a and sb = Iset.of_list b in
      Iset.disjoint sa sb = Iset.is_empty (Iset.inter sa sb))

let prop_fold_iter_agree =
  QCheck.Test.make ~name:"fold and iter agree" gen_list (fun l ->
      let s = Iset.of_list l in
      let via_fold = Iset.fold (fun x acc -> x :: acc) s [] in
      let via_iter = ref [] in
      Iset.iter (fun x -> via_iter := x :: !via_iter) s;
      via_fold = !via_iter)

let prop_filter_model =
  QCheck.Test.make ~name:"filter agrees with model" gen_list (fun l ->
      let s = Iset.of_list l in
      model_of (Iset.filter (fun x -> x mod 3 = 0) s)
      = List.filter (fun x -> x mod 3 = 0) (sorted_dedup l))

let prop_exists_forall =
  QCheck.Test.make ~name:"exists/for_all duality" gen_list (fun l ->
      let s = Iset.of_list l in
      let p x = x mod 2 = 0 in
      Iset.exists p s = not (Iset.for_all (fun x -> not (p x)) s))

let prop_compare_total_order =
  QCheck.Test.make ~name:"compare consistent with equal"
    (QCheck.pair gen_list gen_list) (fun (a, b) ->
      let sa = Iset.of_list a and sb = Iset.of_list b in
      Iset.compare sa sb = 0 = Iset.equal sa sb
      && Iset.compare sa sb = -Iset.compare sb sa)

(* Hash-consing: structurally equal sets are one physical node, however they
   were built, so equal is pointer comparison and hash/compare are O(1). *)

let prop_hashcons_construction_order =
  QCheck.Test.make ~name:"hash-consing: of_list order-independent (==)" gen_list
    (fun l ->
      let a = Iset.of_list l and b = Iset.of_list (List.rev l) in
      a == b && List.fold_left (fun s x -> Iset.add x s) Iset.empty l == a)

let prop_hashcons_union_physical =
  QCheck.Test.make ~name:"hash-consing: equal unions are physically equal"
    (QCheck.pair gen_list gen_list) (fun (la, lb) ->
      let a = Iset.of_list la and b = Iset.of_list lb in
      Iset.union a b == Iset.union b a
      && Iset.union a b == Iset.of_list (la @ lb)
      && Iset.equal (Iset.union a b) (Iset.union b a))

let prop_hashcons_hash_stable =
  (* equal sets agree on hash and compare; distinct sets may collide on hash
     but never compare to 0 *)
  QCheck.Test.make ~name:"hash-consing: hash/compare consistent with equal"
    (QCheck.pair gen_list gen_list) (fun (la, lb) ->
      let a = Iset.of_list la and b = Iset.of_list lb in
      if Iset.equal a b then Iset.hash a = Iset.hash b && Iset.compare a b = 0
      else Iset.compare a b <> 0)

let prop_as_singleton =
  QCheck.Test.make ~name:"as_singleton agrees with model" gen_list (fun l ->
      let s = Iset.of_list l in
      match (Iset.as_singleton s, sorted_dedup l) with
      | Some x, [ y ] -> x = y
      | None, ([] | _ :: _ :: _) -> true
      | _ -> false)

let prop_cardinal =
  QCheck.Test.make ~name:"cardinal = model length" gen_list (fun l ->
      Iset.cardinal (Iset.of_list l) = List.length (sorted_dedup l))

let prop_min_elt =
  QCheck.Test.make ~name:"min_elt is the model minimum" gen_list (fun l ->
      match (Iset.min_elt (Iset.of_list l), sorted_dedup l) with
      | None, [] -> true
      | Some m, x :: _ -> m = x
      | _ -> false)

(* -- domain safety ---------------------------------------------------------- *)

(* The intern table and union memo are shared by every domain (the serve
   daemon's async-edit domain and the stats sampler run beside the protocol
   thread): structurally equal sets must stay physically equal across
   domains, with [hash]/[compare] consistent with [equal]. *)

(* Each domain performs the same deterministic mix of constructions and
   merges; hash-consing must canonicalise across domains, so the i-th result
   of every domain is one physically equal node. *)
let test_iset_concurrent_hashcons () =
  let base = Iset.of_list (List.init 400 (fun i -> i * 3)) in
  let other = Iset.of_list (List.init 400 (fun i -> (i * 5) + 1)) in
  let work () =
    List.init 250 (fun k ->
        let a = Iset.add (k * 7) base in
        let b = Iset.inter other (Iset.add ((k * 2) + 1) a) in
        Iset.union (Iset.union a b) (Iset.of_list [ k; k + 1; k * 11 ]))
  in
  let domains = List.init 4 (fun _ -> Domain.spawn work) in
  let per_domain = List.map Domain.join domains in
  let reference = work () in
  List.iteri
    (fun d results ->
      List.iteri
        (fun i r ->
          let expected = List.nth reference i in
          if not (r == expected) then
            Alcotest.failf "domain %d result %d not physically canonical" d i;
          Alcotest.(check int) "hash agrees" (Iset.hash expected) (Iset.hash r);
          Alcotest.(check int) "compare agrees" 0 (Iset.compare expected r);
          Alcotest.(check bool) "equal agrees" true (Iset.equal expected r))
        results)
    per_domain;
  (* the canonical nodes also carry correct contents *)
  let r0 = List.nth reference 0 in
  Alcotest.(check bool) "mem holds" true (Iset.mem 0 r0 && Iset.mem 11 (List.nth reference 1))

let test_iset_concurrent_fixpoint_contract () =
  (* [union a b == a] iff b ⊆ a must hold for unions computed on other
     domains: the solver's fixpoint test depends on it *)
  let a = Iset.of_list (List.init 300 (fun i -> i * 2)) in
  let b = Iset.of_list (List.init 100 (fun i -> i * 4)) in
  let checks () = List.init 50 (fun k -> Iset.union a (Iset.add (k * 4) b) == a) in
  let domains = List.init 4 (fun _ -> Domain.spawn checks) in
  List.iter
    (fun d ->
      List.iter (fun ok -> Alcotest.(check bool) "subset union is identity" true ok) (Domain.join d))
    domains

let prop_iset_concurrent_canonical =
  QCheck.Test.make ~count:20 ~name:"concurrent union/inter canonical across domains"
    QCheck.(pair (list_of_size Gen.(1 -- 60) (int_bound 500))
              (list_of_size Gen.(1 -- 60) (int_bound 500)))
    (fun (la, lb) ->
      let work () =
        let a = Iset.of_list la and b = Iset.of_list lb in
        (Iset.union a b, Iset.inter a b, Iset.diff a b)
      in
      let domains = List.init 4 (fun _ -> Domain.spawn work) in
      let results = List.map Domain.join domains in
      let u0, i0, d0 = work () in
      List.for_all (fun (u, i, d) -> u == u0 && i == i0 && d == d0) results)

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basics;
    QCheck_alcotest.to_alcotest prop_fold_iter_agree;
    QCheck_alcotest.to_alcotest prop_filter_model;
    QCheck_alcotest.to_alcotest prop_exists_forall;
    QCheck_alcotest.to_alcotest prop_compare_total_order;
    QCheck_alcotest.to_alcotest prop_cardinal;
    QCheck_alcotest.to_alcotest prop_min_elt;
    Alcotest.test_case "algebra" `Quick test_algebra;
    Alcotest.test_case "union physical identity" `Quick test_union_physical_identity;
    Alcotest.test_case "large sparse" `Quick test_large_sparse;
    QCheck_alcotest.to_alcotest prop_of_list_elements;
    QCheck_alcotest.to_alcotest prop_union;
    QCheck_alcotest.to_alcotest prop_inter;
    QCheck_alcotest.to_alcotest prop_diff;
    QCheck_alcotest.to_alcotest prop_subset;
    QCheck_alcotest.to_alcotest prop_union_idempotent_physical;
    QCheck_alcotest.to_alcotest prop_hashcons_construction_order;
    QCheck_alcotest.to_alcotest prop_hashcons_union_physical;
    QCheck_alcotest.to_alcotest prop_hashcons_hash_stable;
    QCheck_alcotest.to_alcotest prop_as_singleton;
    QCheck_alcotest.to_alcotest prop_remove;
    QCheck_alcotest.to_alcotest prop_disjoint;
    Alcotest.test_case "concurrent hash-consing" `Quick test_iset_concurrent_hashcons;
    Alcotest.test_case "concurrent fixpoint contract" `Quick
      test_iset_concurrent_fixpoint_contract;
    QCheck_alcotest.to_alcotest prop_iset_concurrent_canonical;
  ]
