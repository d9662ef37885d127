open Fsam_dsa
open Fsam_ir
module A = Fsam_andersen.Solver
module Obs = Fsam_obs

type span = { sp_lock : int; sp_members : int list }

type t = {
  spans : span array;
  of_inst : int list array;
  locksets : Bitvec.t array; (* per instance: compact lock-object ids held *)
  n_lock_objs : int;
}

type cache = {
  c_pairs : (int * int, (int * int) list) Hashtbl.t;
  mutable c_queries : int;
  mutable c_bitset_hits : int; (* answered [] by the bitset test alone *)
  mutable c_memo_hits : int;
  mutable c_span_checks : int; (* span-pair comparisons on memo misses *)
}

let make_cache () =
  {
    c_pairs = Hashtbl.create 256;
    c_queries = 0;
    c_bitset_hits = 0;
    c_memo_hits = 0;
    c_span_checks = 0;
  }

let cache_queries c = c.c_queries
let cache_bitset_hits c = c.c_bitset_hits
let cache_memo_hits c = c.c_memo_hits
let cache_span_checks c = c.c_span_checks

(* A lock pointer must-aliases a unique runtime lock when its points-to set
   is a singleton whose object represents one location: not a heap object,
   not an array element, not a thread/function object. (Stack locks of
   recursive or multi-forked code would also be excluded by the singleton
   notion of §3.4; lock objects in practice are globals.) *)
let must_lock prog ast v =
  let pts = A.pt_var ast v in
  match Iset.elements pts with
  | [ o ] ->
    let info = Prog.obj prog o in
    if
      info.Memobj.is_array || Memobj.is_heap info || Memobj.is_thread info
      || Memobj.is_function info
    then None
    else Some o
  | _ -> None

let may_release ast v lock_obj = Iset.mem lock_obj (A.pt_var ast v)

let compute prog ast tm =
  let n = Threads.n_insts tm in
  let spans = ref [] in
  (* one scratch visited-set shared by every span exploration: spans are
     typically a handful of instances, so a fresh length-n bitvec per span
     would make this phase O(spans * n_insts) in allocation alone — the
     members list tells us exactly which bits to clear between spans *)
  let set = Bitvec.create ~capacity:n () in
  for iid = 0 to n - 1 do
    let { Threads.i_gid; _ } = Threads.inst tm iid in
    match Prog.stmt_at prog i_gid with
    | Stmt.Lock l -> (
      match must_lock prog ast l with
      | None -> ()
      | Some lock_obj ->
        (* forward exploration stopping at any may-release unlock *)
        let members = ref [] in
        let stack = ref [ iid ] in
        Bitvec.set set iid;
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | i :: tl ->
            stack := tl;
            members := i :: !members;
            let { Threads.i_gid = g; _ } = Threads.inst tm i in
            let stop =
              i <> iid
              &&
              match Prog.stmt_at prog g with
              | Stmt.Unlock u -> may_release ast u lock_obj
              | _ -> false
            in
            if not stop then
              List.iter
                (fun j -> if Bitvec.set_if_unset set j then stack := j :: !stack)
                (Threads.inst_succs tm i)
        done;
        List.iter (Bitvec.clear set) !members;
        spans := { sp_lock = lock_obj; sp_members = !members } :: !spans)
    | _ -> ()
  done;
  let spans = Array.of_list (List.rev !spans) in
  let of_inst = Array.make n [] in
  Array.iteri
    (fun sid sp -> List.iter (fun i -> of_inst.(i) <- sid :: of_inst.(i)) sp.sp_members)
    spans;
  (* Compact the runtime lock objects into dense bit positions and give each
     instance the bitset of locks it holds; [common_lock]'s frequent "no
     common lock" answer then falls out of one bitwise-AND scan. Instances
     inside no span share one empty vector. *)
  let lock_id = Hashtbl.create 8 in
  Array.iter
    (fun sp ->
      if not (Hashtbl.mem lock_id sp.sp_lock) then
        Hashtbl.replace lock_id sp.sp_lock (Hashtbl.length lock_id))
    spans;
  let n_lock_objs = Hashtbl.length lock_id in
  let empty_lockset = Bitvec.create ~capacity:(max 1 n_lock_objs) () in
  let locksets =
    Array.map
      (function
        | [] -> empty_lockset
        | sids ->
          let bv = Bitvec.create ~capacity:(max 1 n_lock_objs) () in
          List.iter (fun sid -> Bitvec.set bv (Hashtbl.find lock_id spans.(sid).sp_lock)) sids;
          bv)
      of_inst
  in
  Obs.Metrics.(set (gauge "locks.spans") (Array.length spans));
  Obs.Metrics.(set (gauge "locks.lock_objs") n_lock_objs);
  { spans; of_inst; locksets; n_lock_objs }

let n_spans t = Array.length t.spans
let n_lock_objs t = t.n_lock_objs
let span_lock t sid = t.spans.(sid).sp_lock

(* Lock objects held at an instance — the lock-set half of a race witness. *)
let held_locks t i =
  List.sort_uniq compare (List.map (fun sid -> t.spans.(sid).sp_lock) t.of_inst.(i))
let span_members t sid = t.spans.(sid).sp_members
let spans_of_inst t i = t.of_inst.(i)

let commonly_protected t i j = Bitvec.intersects t.locksets.(i) t.locksets.(j)

let common_lock_pairs t i j =
  List.concat_map
    (fun si ->
      List.filter_map
        (fun sj -> if span_lock t si = span_lock t sj then Some (si, sj) else None)
        (spans_of_inst t j))
    (spans_of_inst t i)

let common_lock ?cache t i j =
  match cache with
  | None -> if commonly_protected t i j then common_lock_pairs t i j else []
  | Some c -> (
    c.c_queries <- c.c_queries + 1;
    if not (commonly_protected t i j) then begin
      c.c_bitset_hits <- c.c_bitset_hits + 1;
      []
    end
    else
      match Hashtbl.find_opt c.c_pairs (i, j) with
      | Some pairs ->
        c.c_memo_hits <- c.c_memo_hits + 1;
        pairs
      | None ->
        c.c_span_checks <-
          c.c_span_checks + (List.length t.of_inst.(i) * List.length t.of_inst.(j));
        let pairs = common_lock_pairs t i j in
        Hashtbl.replace c.c_pairs (i, j) pairs;
        pairs)
