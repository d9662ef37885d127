type result = {
  comp_of : int array;
  comps : int list array;
  n_comps : int;
}

(* Iterative Tarjan: an explicit stack of (node, remaining successors) frames
   avoids stack overflow on the deep CFGs the workload generator produces. *)
let compute ~n ~succs =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let comp_of = Array.make n (-1) in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let visit root =
    if index.(root) = -1 then begin
      let frames = ref [ (root, succs root) ] in
      index.(root) <- !next_index;
      lowlink.(root) <- !next_index;
      incr next_index;
      stack := root :: !stack;
      on_stack.(root) <- true;
      while !frames <> [] do
        match !frames with
        | [] -> ()
        | (v, todo) :: rest -> (
          match todo with
          | w :: ws ->
            frames := (v, ws) :: rest;
            if index.(w) = -1 then begin
              index.(w) <- !next_index;
              lowlink.(w) <- !next_index;
              incr next_index;
              stack := w :: !stack;
              on_stack.(w) <- true;
              frames := (w, succs w) :: !frames
            end
            else if on_stack.(w) then
              if index.(w) < lowlink.(v) then lowlink.(v) <- index.(w)
          | [] ->
            frames := rest;
            (match rest with
            | (p, _) :: _ -> if lowlink.(v) < lowlink.(p) then lowlink.(p) <- lowlink.(v)
            | [] -> ());
            if lowlink.(v) = index.(v) then begin
              let c = !next_comp in
              incr next_comp;
              let continue = ref true in
              while !continue do
                match !stack with
                | [] -> continue := false
                | w :: tl ->
                  stack := tl;
                  on_stack.(w) <- false;
                  comp_of.(w) <- c;
                  if w = v then continue := false
              done
            end)
      done
    end
  in
  for v = 0 to n - 1 do
    visit v
  done;
  let n_comps = !next_comp in
  let comps = Array.make (max n_comps 1) [] in
  for v = n - 1 downto 0 do
    if comp_of.(v) >= 0 then comps.(comp_of.(v)) <- v :: comps.(comp_of.(v))
  done;
  { comp_of; comps; n_comps }

let is_trivial r ~succs v =
  match r.comps.(r.comp_of.(v)) with
  | [ u ] -> not (List.mem u (succs u))
  | _ -> false
