type t = {
  idom : int array;
  rpo_number : int array; (* position in reverse postorder; -1 if unreachable *)
  frontiers : int list array;
  kids : int list array;
}

let postorder ~n ~succs entry =
  let seen = Array.make n false in
  let order = ref [] in
  (* iterative DFS with explicit frames *)
  let frames = ref [] in
  if entry >= 0 && entry < n then begin
    seen.(entry) <- true;
    frames := [ (entry, succs entry) ]
  end;
  while !frames <> [] do
    match !frames with
    | [] -> ()
    | (v, todo) :: rest -> (
      match todo with
      | w :: ws ->
        frames := (v, ws) :: rest;
        if not seen.(w) then begin
          seen.(w) <- true;
          frames := (w, succs w) :: !frames
        end
      | [] ->
        frames := rest;
        order := v :: !order)
  done;
  !order (* this is reverse postorder: last-finished first *)

let compute ~n ~succs ~preds ~entry =
  let rpo = postorder ~n ~succs entry in
  let rpo_number = Array.make n (-1) in
  List.iteri (fun i v -> rpo_number.(v) <- i) rpo;
  let idom = Array.make n (-1) in
  idom.(entry) <- entry;
  let intersect b1 b2 =
    let f1 = ref b1 and f2 = ref b2 in
    while !f1 <> !f2 do
      while rpo_number.(!f1) > rpo_number.(!f2) do
        f1 := idom.(!f1)
      done;
      while rpo_number.(!f2) > rpo_number.(!f1) do
        f2 := idom.(!f2)
      done
    done;
    !f1
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun v ->
        if v <> entry then begin
          let new_idom = ref (-1) in
          List.iter
            (fun p ->
              if rpo_number.(p) >= 0 && idom.(p) >= 0 then
                if !new_idom = -1 then new_idom := p
                else new_idom := intersect p !new_idom)
            (preds v);
          if !new_idom >= 0 && idom.(v) <> !new_idom then begin
            idom.(v) <- !new_idom;
            changed := true
          end
        end)
      rpo
  done;
  let frontiers = Array.make n [] in
  let add_frontier v x =
    if not (List.mem x frontiers.(v)) then frontiers.(v) <- x :: frontiers.(v)
  in
  (* join points only: a node with two distinct predecessors (lists may
     repeat an edge) *)
  let is_join = function [] -> false | p :: ps -> List.exists (fun q -> q <> p) ps in
  for v = 0 to n - 1 do
    if rpo_number.(v) >= 0 && is_join (preds v) then
      List.iter
        (fun p ->
          if rpo_number.(p) >= 0 then begin
            let runner = ref p in
            while !runner <> idom.(v) do
              add_frontier !runner v;
              runner := idom.(!runner)
            done
          end)
        (preds v)
  done;
  let kids = Array.make n [] in
  for v = 0 to n - 1 do
    if v <> entry && idom.(v) >= 0 then kids.(idom.(v)) <- v :: kids.(idom.(v))
  done;
  { idom; rpo_number; frontiers; kids }

let idom t v = t.idom.(v)

let dominates t a b =
  if t.rpo_number.(a) < 0 || t.rpo_number.(b) < 0 then false
  else begin
    let v = ref b in
    let res = ref false in
    let continue = ref true in
    while !continue do
      if !v = a then begin
        res := true;
        continue := false
      end
      else if t.idom.(!v) = !v || t.idom.(!v) < 0 then continue := false
      else v := t.idom.(!v)
    done;
    !res
  end

let frontier t v = t.frontiers.(v)
let children t v = t.kids.(v)
let reachable t v = v >= 0 && v < Array.length t.rpo_number && t.rpo_number.(v) >= 0
