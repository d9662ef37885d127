open Fsam_dsa
open Fsam_ir
module Mta = Fsam_mta

type race = { store_gid : int; access_gid : int; obj : int; both_writes : bool }

(* Flow-sensitive access sets: for a store, the objects it may write is the
   solver's pt of its destination pointer; likewise for loads. *)
let accesses d gid =
  match Prog.stmt_at d.Driver.prog gid with
  | Stmt.Store { dst; _ } -> Some (true, Sparse.pt_top d.Driver.sparse dst)
  | Stmt.Load { src; _ } -> Some (false, Sparse.pt_top d.Driver.sparse src)
  | _ -> None

(* Whether every MHP instance pair of the two statements is covered by spans
   of a common lock. Depends only on the statement pair, not on the object. *)
let protected d gid gid' =
  let pairs = Mta.Mhp.mhp_pairs_inst d.Driver.mhp gid gid' in
  pairs <> []
  && List.for_all (fun (i, j) -> Mta.Locks.commonly_protected d.Driver.locks i j) pairs

(* Every race is one of the SVFG's recorded unprotected [THREAD-VF] pairs:
   FSAM's points-to sets are subsets of the pre-analysis targets the pairs
   were enumerated from. The MHP and lock tests are re-applied because an
   ablation config records a wider set (PCG in place of MHP, no common
   target, no lock filter); under the default config they always hold. *)
let detect d =
  let stride = Prog.n_stmts d.Driver.prog in
  let verdict = Hashtbl.create 256 in
  let unprotected_mhp s a =
    let key = (s * stride) + a in
    match Hashtbl.find_opt verdict key with
    | Some b -> b
    | None ->
      let b = Mta.Mhp.mhp_stmt d.Driver.mhp s a && not (protected d s a) in
      Hashtbl.replace verdict key b;
      b
  in
  let races = ref [] in
  Fsam_memssa.Svfg.iter_unprotected_pairs d.Driver.svfg (fun ~obj:o ~store ~access ->
      match (accesses d store, accesses d access) with
      | Some (true, os), Some (w, os') when Iset.mem o os && Iset.mem o os' ->
        (* write-write pairs are reported once, lower gid as the store *)
        let s, a = if w && access < store then (access, store) else (store, access) in
        if unprotected_mhp s a then
          races := { store_gid = s; access_gid = a; obj = o; both_writes = w } :: !races
      | _ -> ());
  List.sort_uniq compare !races

let pp_race d ppf r =
  let prog = d.Driver.prog in
  Format.fprintf ppf "race on %s: %a [w] || %a [%s]" (Prog.obj_name prog r.obj)
    (Prog.pp_stmt prog) (Prog.stmt_at prog r.store_gid) (Prog.pp_stmt prog)
    (Prog.stmt_at prog r.access_gid)
    (if r.both_writes then "w" else "r")
