(* Correctness checks. Both compare the analysis against something it did
   not produce: an interpreter's observations, or a cold rebuild. *)

module D = Fsam_core.Driver
module Sparse = Fsam_core.Sparse
module Races = Fsam_core.Races
module Iset = Fsam_dsa.Iset
module Explore = Fsam_interp.Explore

(* Soundness oracle: every points-to fact a bounded exploration of the
   program's schedules observes must be in the flow-sensitive result.
   Returns (facts checked, facts missing). *)
let oracle ~max_runs (d : D.t) =
  let r = Explore.explore ~max_steps:2000 ~max_runs d.D.prog in
  let missing = ref 0 in
  List.iter
    (fun (v, o) -> if not (Iset.mem o (Sparse.pt_top d.D.sparse v)) then incr missing)
    r.Explore.var_facts;
  List.iter
    (fun (l, o) -> if not (Iset.mem o (Sparse.pt_obj_anywhere d.D.sparse l)) then incr missing)
    r.Explore.mem_facts;
  (List.length r.Explore.var_facts + List.length r.Explore.mem_facts, !missing)

(* A daemon generation must equal a cold run of its source: same SVFG
   digest, same flow-sensitive points-to set for every variable, and the
   same race report ([races] as the daemon rendered it). Returns the list
   of mismatches. *)
let same_as_cold ~(resident : D.t) ~races ~source =
  let cold = D.run (Fsam_frontend.Lower.compile_string source) in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let n = Fsam_ir.Prog.n_vars resident.D.prog in
  if n <> Fsam_ir.Prog.n_vars cold.D.prog then
    err "variable count %d vs cold %d" n (Fsam_ir.Prog.n_vars cold.D.prog)
  else begin
    let differ = ref 0 in
    for v = 0 to n - 1 do
      if not (Iset.equal (D.pt resident v) (D.pt cold v)) then incr differ
    done;
    if !differ > 0 then err "%d points-to sets differ from the cold rebuild" !differ
  end;
  let dg = Fsam_memssa.Svfg.digest in
  if dg resident.D.svfg <> dg cold.D.svfg then err "SVFG digest differs from the cold rebuild";
  let cold_races =
    List.map
      (fun r -> (r.Races.store_gid, r.Races.access_gid, r.Races.obj, r.Races.both_writes))
      (Races.detect cold)
  in
  if List.sort compare races <> List.sort compare cold_races then
    err "race report differs from the cold rebuild (%d vs %d races)" (List.length races)
      (List.length cold_races);
  List.rev !errs
