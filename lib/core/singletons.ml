open Fsam_dsa
open Fsam_ir
module Mta = Fsam_mta

let compute prog tm icfg =
  (* how many runtime threads may execute each function *)
  let nf = Prog.n_funcs prog in
  let runners = Array.make nf Iset.empty in
  let multi_runner = Array.make nf false in
  for tid = 0 to Mta.Threads.n_threads tm - 1 do
    List.iter
      (fun iid ->
        let g = (Mta.Threads.inst tm iid).Mta.Threads.i_gid in
        let f = Mta.Icfg.fid_of icfg g in
        runners.(f) <- Iset.add tid runners.(f);
        if Mta.Threads.is_multi tm tid then multi_runner.(f) <- true)
      (Mta.Threads.insts_of_thread tm tid)
  done;
  fun o ->
    if o < 0 || o >= Prog.n_objs prog then false
    else begin
      let info = Prog.obj prog o in
      let root = Prog.obj prog (Memobj.base_of info) in
      (not info.Memobj.is_array)
      && (not root.Memobj.is_array)
      &&
      match root.Memobj.kind with
      | Memobj.Heap _ -> false
      | Memobj.Func _ | Memobj.Thread _ -> false
      | Memobj.Global -> true
      | Memobj.Field _ -> false (* roots are never fields *)
      | Memobj.Stack fid ->
        (not (Mta.Icfg.recursive icfg fid))
        && (not multi_runner.(fid))
        && Iset.cardinal runners.(fid) <= 1
    end
