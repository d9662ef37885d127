open Fsam_dsa

let from ~n ~succs s =
  let seen = Bitvec.create ~capacity:n () in
  let stack = ref [] in
  if s >= 0 then begin
    Bitvec.set seen s;
    stack := [ s ]
  end;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | u :: tl ->
      stack := tl;
      List.iter (fun v -> if Bitvec.set_if_unset seen v then stack := v :: !stack) (succs u)
  done;
  seen

let all_paths_hit ~n ~succs ~src ~targets ~exits =
  (* Explore from [src] without entering target nodes; the property fails iff
     this exploration can still reach an exit. The source itself counts as
     covered when it is a target. *)
  if Bitvec.get targets src then true
  else begin
    let exit_set = Bitvec.create ~capacity:n () in
    List.iter (fun e -> if e >= 0 then Bitvec.set exit_set e) exits;
    let seen = Bitvec.create ~capacity:n () in
    let stack = ref [ src ] in
    Bitvec.set seen src;
    let ok = ref true in
    if Bitvec.get exit_set src then ok := false;
    while !ok && !stack <> [] do
      match !stack with
      | [] -> ()
      | u :: tl ->
        stack := tl;
        List.iter
          (fun v ->
            if (not (Bitvec.get targets v)) && Bitvec.set_if_unset seen v then begin
              if Bitvec.get exit_set v then ok := false;
              stack := v :: !stack
            end)
          (succs u)
    done;
    !ok
  end
