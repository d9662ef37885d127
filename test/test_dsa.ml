open Fsam_dsa

let test_bitvec_basics () =
  let b = Bitvec.create () in
  Alcotest.(check bool) "initially unset" false (Bitvec.get b 5);
  Bitvec.set b 5;
  Bitvec.set b 1000;
  Alcotest.(check bool) "set 5" true (Bitvec.get b 5);
  Alcotest.(check bool) "set 1000 (grown)" true (Bitvec.get b 1000);
  Alcotest.(check bool) "999 unset" false (Bitvec.get b 999);
  Alcotest.(check int) "cardinal" 2 (Bitvec.cardinal b);
  Bitvec.clear b 5;
  Alcotest.(check bool) "cleared" false (Bitvec.get b 5);
  Alcotest.(check bool) "set_if_unset true" true (Bitvec.set_if_unset b 7);
  Alcotest.(check bool) "set_if_unset false" false (Bitvec.set_if_unset b 7)

let test_bitvec_union () =
  let a = Bitvec.create () and b = Bitvec.create () in
  Bitvec.set a 1;
  Bitvec.set b 2;
  Bitvec.set b 300;
  Alcotest.(check bool) "union changes" true (Bitvec.union_into ~dst:a ~src:b);
  Alcotest.(check bool) "union idempotent" false (Bitvec.union_into ~dst:a ~src:b);
  Alcotest.(check (list int)) "members" [ 1; 2; 300 ] (Iset.elements (Bitvec.to_iset a))

let test_bitvec_iter () =
  let b = Bitvec.create () in
  List.iter (Bitvec.set b) [ 0; 7; 8; 63; 64; 129 ];
  let acc = ref [] in
  Bitvec.iter_set (fun i -> acc := i :: !acc) b;
  Alcotest.(check (list int)) "iter_set ascending" [ 0; 7; 8; 63; 64; 129 ] (List.rev !acc);
  Bitvec.clear_all b;
  Alcotest.(check int) "clear_all" 0 (Bitvec.cardinal b)

let test_uf () =
  let u = Uf.create 10 in
  Alcotest.(check bool) "initially apart" false (Uf.same u 1 2);
  ignore (Uf.union u 1 2);
  ignore (Uf.union u 3 4);
  Alcotest.(check bool) "joined" true (Uf.same u 1 2);
  Alcotest.(check bool) "still apart" false (Uf.same u 2 3);
  ignore (Uf.union u 2 4);
  Alcotest.(check bool) "transitively joined" true (Uf.same u 1 3);
  Alcotest.(check int) "class count" 7 (Uf.n_classes u)

let test_uf_union_to () =
  let u = Uf.create 5 in
  let r = Uf.union_to u ~keep:2 ~absorb:4 in
  Alcotest.(check int) "keeps representative" 2 r;
  Alcotest.(check int) "find absorbed" 2 (Uf.find u 4);
  (* growing on demand *)
  Alcotest.(check int) "fresh key is own root" 50 (Uf.find u 50)

let test_vec () =
  let v = Vec.create () in
  Alcotest.(check int) "push returns index" 0 (Vec.push v "a");
  Alcotest.(check int) "second index" 1 (Vec.push v "b");
  Vec.set v 0 "z";
  Alcotest.(check string) "set/get" "z" (Vec.get v 0);
  Alcotest.(check (list string)) "to_list" [ "z"; "b" ] (Vec.to_list v);
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index 5 out of bounds (len 2)")
    (fun () -> ignore (Vec.get v 5))

let prop_uf_model =
  (* union-find agrees with a naive equivalence closure *)
  QCheck.Test.make ~name:"union-find vs naive closure"
    QCheck.(list_of_size Gen.(0 -- 30) (pair (int_bound 15) (int_bound 15)))
    (fun pairs ->
      let u = Uf.create 16 in
      List.iter (fun (a, b) -> ignore (Uf.union u a b)) pairs;
      (* naive: iterate closure *)
      let cls = Array.init 16 (fun i -> i) in
      let rec croot i = if cls.(i) = i then i else croot cls.(i) in
      List.iter
        (fun (a, b) ->
          let ra = croot a and rb = croot b in
          if ra <> rb then cls.(ra) <- rb)
        pairs;
      let ok = ref true in
      for i = 0 to 15 do
        for j = 0 to 15 do
          if Uf.same u i j <> (croot i = croot j) then ok := false
        done
      done;
      !ok)

(* -- Arena flat stores ----------------------------------------------------- *)

let test_arena_buf () =
  let open Fsam_dsa.Arena in
  let b = Buf.create ~capacity:2 () in
  for i = 0 to 99 do
    Alcotest.(check int) "push returns index" i (Buf.push b (i * 3))
  done;
  Alcotest.(check int) "length" 100 (Buf.length b);
  Alcotest.(check int) "get" 42 (Buf.get b 14);
  Buf.set b 14 7;
  Alcotest.(check int) "set/get" 7 (Buf.get b 14);
  let a = Buf.to_array b in
  Alcotest.(check int) "to_array length" 100 (Array.length a);
  Alcotest.(check int) "to_array content" 297 a.(99)

let prop_arena_intmap_model =
  QCheck.Test.make ~count:100 ~name:"Arena.Intmap behaves like Hashtbl"
    QCheck.(list (pair (int_bound 1000) (int_bound 10_000)))
    (fun ops ->
      let open Fsam_dsa.Arena in
      let m = Intmap.create ~capacity:2 () in
      let h = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          Intmap.set m ~key:k v;
          Hashtbl.replace h k v)
        ops;
      Intmap.length m = Hashtbl.length h
      && List.for_all
           (fun (k, _) ->
             Intmap.find m ~key:k ~default:(-1) = Hashtbl.find h k
             && Intmap.find_or_add m ~key:k (fun () -> -2) = Hashtbl.find h k)
           ops
      && Intmap.find m ~key:5000 ~default:(-1) = Option.value ~default:(-1) (Hashtbl.find_opt h 5000)
      &&
      (* iter visits exactly the live bindings *)
      let seen = Hashtbl.create 16 in
      Intmap.iter m (fun ~key v -> Hashtbl.replace seen key v);
      Hashtbl.length seen = Hashtbl.length h
      && Hashtbl.fold (fun k v acc -> acc && Hashtbl.find_opt seen k = Some v) h true)

let prop_arena_csr_model =
  QCheck.Test.make ~count:100 ~name:"Arena.Csr matches list adjacency"
    QCheck.(pair (1 -- 20) (list (pair (int_bound 19) (int_bound 50))))
    (fun (n_rows, edges) ->
      let open Fsam_dsa.Arena in
      let edges = List.filter (fun (r, _) -> r < n_rows) edges in
      let csr = Csr.build ~n_rows (fun emit -> List.iter (fun (r, v) -> emit ~row:r ~value:v) edges) in
      let row r = List.filter_map (fun (r', v) -> if r' = r then Some v else None) edges in
      Csr.n_rows csr = n_rows
      && List.for_all
           (fun r ->
             let expect = row r in
             let got = ref [] in
             Csr.iter_row csr r (fun v -> got := v :: !got);
             Csr.degree csr r = List.length expect
             && List.sort compare !got = List.sort compare expect
             && List.for_all (fun v -> Csr.mem_row csr r v) expect
             && Csr.mem_row csr r 77 = List.mem 77 expect
             && Csr.exists_row csr r (fun v -> v mod 7 = 0)
                = List.exists (fun v -> v mod 7 = 0) expect)
           (List.init n_rows Fun.id))

let suite =
  [
    Alcotest.test_case "bitvec basics" `Quick test_bitvec_basics;
    Alcotest.test_case "arena buf" `Quick test_arena_buf;
    QCheck_alcotest.to_alcotest prop_arena_intmap_model;
    QCheck_alcotest.to_alcotest prop_arena_csr_model;
    Alcotest.test_case "bitvec union" `Quick test_bitvec_union;
    Alcotest.test_case "bitvec iter/clear" `Quick test_bitvec_iter;
    Alcotest.test_case "union-find" `Quick test_uf;
    Alcotest.test_case "union-find union_to/grow" `Quick test_uf_union_to;
    Alcotest.test_case "vec" `Quick test_vec;
    QCheck_alcotest.to_alcotest prop_uf_model;
  ]
