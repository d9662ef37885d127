(* The all-pairs race scan: every store against every load and every later
   store, with the flow-sensitive common-object, MHP and lock tests applied
   per pair. [Races.detect] derives the same report from the SVFG's
   recorded [THREAD-VF] pair verdicts; this quadratic definition is the
   oracle the differential tests compare it against. *)

open Fsam_dsa
open Fsam_ir
module D = Fsam_core.Driver
module Races = Fsam_core.Races
module Mta = Fsam_mta

let accesses d gid =
  match Prog.stmt_at d.D.prog gid with
  | Stmt.Store { dst; _ } -> Some (true, Fsam_core.Sparse.pt_top d.D.sparse dst)
  | Stmt.Load { src; _ } -> Some (false, Fsam_core.Sparse.pt_top d.D.sparse src)
  | _ -> None

let protected d gid gid' =
  let pairs = Mta.Mhp.mhp_pairs_inst d.D.mhp gid gid' in
  pairs <> [] && List.for_all (fun (i, j) -> Mta.Locks.commonly_protected d.D.locks i j) pairs

let detect d =
  let stores = ref [] and loads = ref [] in
  Prog.iter_stmts d.D.prog (fun gid _ s ->
      match s with
      | Stmt.Store _ -> stores := gid :: !stores
      | Stmt.Load _ -> loads := gid :: !loads
      | _ -> ());
  let races = ref [] in
  let consider s a =
    match (accesses d s, accesses d a) with
    | Some (true, os), Some (w, os') ->
      let common = Iset.inter os os' in
      if
        (not (Iset.is_empty common))
        && Mta.Mhp.mhp_stmt d.D.mhp s a
        && not (protected d s a)
      then
        Iset.iter
          (fun o ->
            races :=
              { Races.store_gid = s; access_gid = a; obj = o; both_writes = w } :: !races)
          common
    | _ -> ()
  in
  List.iter
    (fun s ->
      List.iter (consider s) !loads;
      List.iter (fun a -> if s <= a then consider s a) !stores)
    !stores;
  List.sort_uniq compare !races
