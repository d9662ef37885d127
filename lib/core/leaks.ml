open Fsam_dsa
open Fsam_ir
module Mta = Fsam_mta

type finding = Never_freed of int | Double_free of int * int * int

let is_free_call prog = function
  | Stmt.Call { target = Stmt.Direct fid; args = [ _ ]; _ } ->
    (Prog.func prog fid).Func.fname = "free"
  | _ -> false

(* A single free site can fire more than once when it sits in a CFG cycle of
   its own function, or when the thread executing it is multi-forked
   (Definition 1): a [free] in the body of a loop-forked thread runs once
   per runtime thread instance even though no intra-procedural cycle
   contains it. *)
let repeats d g =
  Mta.Icfg.in_cfg_cycle d.Driver.icfg g
  || List.exists
       (fun iid -> Mta.Threads.is_multi d.Driver.tm (Mta.Threads.inst d.Driver.tm iid).Mta.Threads.i_thread)
       (Mta.Threads.insts_of_gid d.Driver.tm g)

let detect d =
  let prog = d.Driver.prog in
  (* free sites and the heap objects they may release *)
  let free_sites = ref [] in
  Prog.iter_stmts prog (fun gid _ s ->
      if is_free_call prog s then
        match s with
        | Stmt.Call { args = [ a ]; _ } ->
          let heap_targets =
            Iset.filter
              (fun o -> Memobj.is_heap (Prog.obj prog o))
              (Sparse.pt_top d.Driver.sparse a)
          in
          free_sites := (gid, heap_targets) :: !free_sites
        | _ -> ());
  let sites = Array.of_list (List.rev !free_sites) in
  let freed = Array.fold_left (fun acc (_, s) -> Iset.union acc s) Iset.empty sites in
  let findings = ref [] in
  (* never freed: heap objects that appear in some pointer's points-to set
     (i.e. were actually allocated on a reachable path per the analysis) *)
  let live_heap = ref Iset.empty in
  Prog.iter_stmts prog (fun _ _ s ->
      match s with
      | Stmt.Addr_of { obj; _ } when Memobj.is_heap (Prog.obj prog obj) ->
        live_heap := Iset.add obj !live_heap
      | _ -> ());
  Iset.iter
    (fun o -> if not (Iset.mem o freed) then findings := Never_freed o :: !findings)
    !live_heap;
  (* double free: two distinct free sites may release the same object, or a
     single site that can execute repeatedly *)
  for i = 0 to Array.length sites - 1 do
    let g1, s1 = sites.(i) in
    for j = i + 1 to Array.length sites - 1 do
      let g2, s2 = sites.(j) in
      Iset.iter (fun o -> if Iset.mem o s2 then findings := Double_free (o, g1, g2) :: !findings) s1
    done;
    if repeats d g1 then Iset.iter (fun o -> findings := Double_free (o, g1, g1) :: !findings) s1
  done;
  List.sort_uniq compare !findings

let pp_finding d ppf = function
  | Never_freed o ->
    Format.fprintf ppf "leak: %s is never freed" (Prog.obj_name d.Driver.prog o)
  | Double_free (o, g1, g2) ->
    Format.fprintf ppf "double free of %s (gids %d, %d)" (Prog.obj_name d.Driver.prog o) g1 g2
