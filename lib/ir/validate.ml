let check ?(ssa = true) p =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let n_vars = Prog.n_vars p and n_objs = Prog.n_objs p in
  let def_site = Hashtbl.create 256 in
  let var_func = Hashtbl.create 256 in
  let seen_forks = Hashtbl.create 16 in
  let check_var fname what v =
    if v < 0 || v >= n_vars then err "%s: %s variable id %d out of range" fname what v
  in
  Prog.iter_funcs p (fun f ->
      let fname = f.Func.fname in
      let n = Func.n_stmts f in
      if n = 0 then err "%s: empty function" fname;
      List.iter
        (fun pv ->
          check_var fname "param" pv;
          Hashtbl.replace var_func pv f.Func.fid)
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
              match Hashtbl.find_opt var_func v with
              | Some f' when f' <> f.Func.fid && ssa ->
                err "%s: stmt %d uses variable %s belonging to %s" fname i
                  (Prog.var_name p v)
                  (Prog.func p f').Func.fname
              | _ -> Hashtbl.replace var_func v f.Func.fid)
            (Stmt.uses s);
          (match Stmt.def s with
          | Some d -> (
            check_var fname "defined" d;
            if ssa && List.mem d f.Func.params then
              err "%s: stmt %d redefines parameter %s" fname i (Prog.var_name p d);
            (match Hashtbl.find_opt var_func d with
            | Some f' when f' <> f.Func.fid && ssa ->
              err "%s: stmt %d defines variable of function %s" fname i
                (Prog.func p f').Func.fname
            | _ -> Hashtbl.replace var_func d f.Func.fid);
            match Hashtbl.find_opt def_site d with
            | Some _ when ssa ->
              err "%s: stmt %d violates SSA: second definition of %s" fname i
                (Prog.var_name p d)
            | _ -> Hashtbl.replace def_site d (f.Func.fid, i))
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
