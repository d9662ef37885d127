(* Order statistics over float samples. [percentile] interpolates linearly
   between closest ranks; [quartiles] is Python's
   [statistics.quantiles(xs, n=4)] (the "exclusive" method), so the spreads
   compare mode prints are the ones a reader of the raw values computes. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 50.

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> nan
  | xs -> exp (mean (List.map log xs))

let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
