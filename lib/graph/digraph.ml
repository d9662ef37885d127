open Fsam_dsa

type t = {
  mutable fwd : Iset.t array; (* fwd.(u) = successor set of u *)
  mutable max_node : int; (* -1 when no node exists *)
}

let create ?(size_hint = 16) () = { fwd = Array.make (max size_hint 1) Iset.empty; max_node = -1 }

let ensure_node t i =
  if i < 0 then invalid_arg "Digraph.ensure_node";
  let len = Array.length t.fwd in
  if i >= len then begin
    let fwd = Array.make (max (i + 1) (2 * len)) Iset.empty in
    Array.blit t.fwd 0 fwd 0 len;
    t.fwd <- fwd
  end;
  if i > t.max_node then t.max_node <- i

let add_edge t u v =
  ensure_node t u;
  ensure_node t v;
  t.fwd.(u) <- Iset.add v t.fwd.(u)

let has_edge t u v = u >= 0 && u <= t.max_node && Iset.mem v t.fwd.(u)
let n_nodes t = t.max_node + 1
let succs t u = if u > t.max_node then [] else Iset.elements t.fwd.(u)
let iter_succs t u f = if u <= t.max_node then Iset.iter f t.fwd.(u)

let iter_edges t f =
  for u = 0 to t.max_node do
    iter_succs t u (f u)
  done
