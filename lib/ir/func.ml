type t = {
  fid : int;
  fname : string;
  params : Stmt.var list;
  stmts : Stmt.t array;
  succ : int list array;
  pred : int list array;
  exits : int list;
}

let entry _ = 0
let n_stmts f = Array.length f.stmts
let stmt f i = f.stmts.(i)

let iter_stmts f g = Array.iteri g f.stmts
