open Fsam_ir
module Mta = Fsam_mta

type deadlock = { lock_a : int; lock_b : int; site_ab : int; site_ba : int }

(* lock-order edges: (held lock, acquired lock, acquiring instance) *)
let lock_order_edges d =
  let lk = d.Driver.locks in
  let tm = d.Driver.tm in
  let edges = ref [] in
  for sid = 0 to Mta.Locks.n_spans lk - 1 do
    let held = Mta.Locks.span_lock lk sid in
    List.iter
      (fun iid ->
        let gid = (Mta.Threads.inst tm iid).Mta.Threads.i_gid in
        match Prog.stmt_at d.Driver.prog gid with
        | Stmt.Lock v -> (
          match Fsam_dsa.Iset.elements (Sparse.pt_top d.Driver.sparse v) with
          | [ acquired ] when acquired <> held -> edges := (held, acquired, iid) :: !edges
          | _ -> ())
        | _ -> ())
      (Mta.Locks.span_members lk sid)
  done;
  !edges

let detect d =
  let edges = Array.of_list (lock_order_edges d) in
  let mhp = d.Driver.mhp in
  let tm = d.Driver.tm in
  (* every edge scans the whole edge array for its reverse pair *)
  let found = ref [] in
  Array.iter
    (fun (a, b, i) ->
      Array.iter
        (fun (a', b', j) ->
          if a' = b && b' = a && a < a' && Mta.Mhp.mhp_inst mhp i j then
            found :=
              {
                lock_a = a;
                lock_b = b;
                site_ab = (Mta.Threads.inst tm i).Mta.Threads.i_gid;
                site_ba = (Mta.Threads.inst tm j).Mta.Threads.i_gid;
              }
              :: !found)
        edges)
    edges;
  List.sort_uniq compare !found

let pp_deadlock d ppf dl =
  let prog = d.Driver.prog in
  Format.fprintf ppf "%s -> %s (at gid %d) vs %s -> %s (at gid %d)"
    (Prog.obj_name prog dl.lock_a) (Prog.obj_name prog dl.lock_b) dl.site_ab
    (Prog.obj_name prog dl.lock_b) (Prog.obj_name prog dl.lock_a) dl.site_ba
