let check ?(ssa = true) p =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let n_vars = Prog.n_vars p and n_objs = Prog.n_objs p in
  (* per-variable owner function and defined flag; the out-of-range ids an
     invalid program may carry go to side tables *)
  let var_func = Array.make n_vars (-1) and stray_func = Hashtbl.create 0 in
  let defined = Array.make n_vars false and stray_def = Hashtbl.create 0 in
  let in_range v = v >= 0 && v < n_vars in
  let func_of v =
    if in_range v then (match var_func.(v) with -1 -> None | f -> Some f)
    else Hashtbl.find_opt stray_func v
  in
  let set_func v fid = if in_range v then var_func.(v) <- fid else Hashtbl.replace stray_func v fid in
  (* marks [d] defined; true when it already was *)
  let define d =
    let seen = if in_range d then defined.(d) else Hashtbl.mem stray_def d in
    if in_range d then defined.(d) <- true else Hashtbl.replace stray_def d ();
    seen
  in
  let seen_forks = Hashtbl.create 16 in
  let check_var fname what v =
    if not (in_range v) then err "%s: %s variable id %d out of range" fname what v
  in
  Prog.iter_funcs p (fun f ->
      let fname = f.Func.fname in
      let n = Func.n_stmts f in
      if n = 0 then err "%s: empty function" fname;
      List.iter
        (fun pv ->
          check_var fname "param" pv;
          set_func pv f.Func.fid)
        f.Func.params;
      (* successor ranges + fallthrough off the end *)
      Array.iteri
        (fun i succs ->
          List.iter
            (fun j -> if j < 0 || j >= n then err "%s: stmt %d successor %d out of range" fname i j)
            succs;
          match f.Func.stmts.(i) with
          | Stmt.Return _ ->
            if succs <> [] then err "%s: return at %d has successors" fname i
          | _ -> if succs = [] then err "%s: stmt %d falls off the end" fname i)
        f.Func.succ;
      (* reachability *)
      let succs i = if i < n then List.filter (fun j -> j >= 0 && j < n) f.Func.succ.(i) else [] in
      let reach = Fsam_graph.Reach.from ~n ~succs (Func.entry f) in
      Func.iter_stmts f (fun i _ ->
          if not (Fsam_dsa.Bitvec.get reach i) then
            err "%s: stmt %d unreachable from entry" fname i);
      (* operands *)
      Func.iter_stmts f (fun i s ->
          List.iter
            (fun v ->
              check_var fname "used" v;
              match func_of v with
              | Some f' when f' <> f.Func.fid && ssa ->
                err "%s: stmt %d uses variable %s belonging to %s" fname i
                  (Prog.var_name p v)
                  (Prog.func p f').Func.fname
              | _ -> set_func v f.Func.fid)
            (Stmt.uses s);
          (match Stmt.def s with
          | Some d -> (
            check_var fname "defined" d;
            if ssa && List.mem d f.Func.params then
              err "%s: stmt %d redefines parameter %s" fname i (Prog.var_name p d);
            (match func_of d with
            | Some f' when f' <> f.Func.fid && ssa ->
              err "%s: stmt %d defines variable of function %s" fname i
                (Prog.func p f').Func.fname
            | _ -> set_func d f.Func.fid);
            if define d && ssa then
              err "%s: stmt %d violates SSA: second definition of %s" fname i
                (Prog.var_name p d))
          | None -> ());
          match s with
          | Stmt.Addr_of { obj; _ } ->
            if obj < 0 || obj >= n_objs then err "%s: stmt %d object id %d out of range" fname i obj
          | Stmt.Call { target = Direct fid; _ }
          | Stmt.Fork { target = Direct fid; _ } ->
            if fid < 0 || fid >= Prog.n_funcs p then
              err "%s: stmt %d calls unknown function id %d" fname i fid
          | Stmt.Fork { fork_id; _ } -> (
            if Hashtbl.mem seen_forks fork_id then
              err "%s: duplicate fork id %d" fname fork_id
            else Hashtbl.replace seen_forks fork_id ();
            match Prog.fork_site p fork_id with
            | fid', idx' when fid' <> f.Func.fid || idx' <> i ->
              err "%s: fork id %d site table mismatch" fname fork_id
            | _ -> ()
            | exception _ -> err "%s: fork id %d missing from site table" fname fork_id)
          | _ -> ()));
  (match Prog.find_func p "main" with
  | None -> err "program has no main"
  | Some _ -> ());
  match !errs with [] -> Ok () | es -> Error (List.rev es)

let check_exn ?ssa p =
  match check ?ssa p with
  | Ok () -> ()
  | Error es -> invalid_arg ("Validate: " ^ String.concat "; " es)
