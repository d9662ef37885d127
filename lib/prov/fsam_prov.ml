(* Append-only derivation arena. Each record is [width] consecutive ints:
   [space; k1; k2; obj; tag; x; y; z]. The index maps a fact's key to its
   record id; lookups return the payload (tag, x, y, z). *)

let width = 8

type t = {
  mutable arena : int array;
  mutable n : int; (* records *)
  index : (int * int * int * int, int) Hashtbl.t;
}

let create () = { arena = Array.make (256 * width) 0; n = 0; index = Hashtbl.create 1024 }
let n_records t = t.n

(* Spaces. *)
let sp_avar = 0
let sp_var = 1
let sp_mem = 2
let sp_store = 3
let sp_pair = 4

(* Reason tags. *)
let a_base = 1
let a_copy = 2
let a_gep = 3
let a_fork = 4
let a_merge = 5
let s_addr = 10
let s_copy = 11
let s_phi = 12
let s_gep = 13
let s_load = 14
let s_bind = 15
let m_store = 20
let m_edge = 21
let m_fork = 22
let u_strong = 30
let u_weak = 31
let p_kept = 40
let p_filtered_lock = 41
let p_skipped_mhp = 42

let pack_spans ~sp ~sp' ~store_not_tail ~load_not_head =
  (((sp lsl 20) lor sp') lsl 2)
  lor (if store_not_tail then 1 else 0)
  lor (if load_not_head then 2 else 0)

let unpack_spans z =
  let bits = z land 3 in
  let sps = z lsr 2 in
  (sps lsr 20, sps land 0xfffff, bits land 1 <> 0, bits land 2 <> 0)

let grow t =
  let cap = Array.length t.arena in
  let a = Array.make (2 * cap) 0 in
  Array.blit t.arena 0 a 0 cap;
  t.arena <- a

let write t ~space ~k1 ~k2 ~obj ~tag ~x ~y ~z id =
  let off = id * width in
  if off + width > Array.length t.arena then grow t;
  let a = t.arena in
  a.(off) <- space;
  a.(off + 1) <- k1;
  a.(off + 2) <- k2;
  a.(off + 3) <- obj;
  a.(off + 4) <- tag;
  a.(off + 5) <- x;
  a.(off + 6) <- y;
  a.(off + 7) <- z

let add t ~space ~k1 ~k2 ~obj ~tag ~x ~y ~z =
  let key = (space, k1, k2, obj) in
  if not (Hashtbl.mem t.index key) then begin
    let id = t.n in
    write t ~space ~k1 ~k2 ~obj ~tag ~x ~y ~z id;
    Hashtbl.replace t.index key id;
    t.n <- id + 1
  end

let set t ~space ~k1 ~k2 ~obj ~tag ~x ~y ~z =
  let key = (space, k1, k2, obj) in
  match Hashtbl.find_opt t.index key with
  | Some id ->
    let off = id * width in
    t.arena.(off + 4) <- tag;
    t.arena.(off + 5) <- x;
    t.arena.(off + 6) <- y;
    t.arena.(off + 7) <- z
  | None ->
    let id = t.n in
    write t ~space ~k1 ~k2 ~obj ~tag ~x ~y ~z id;
    Hashtbl.replace t.index key id;
    t.n <- id + 1

let find t ~space ~k1 ~k2 ~obj =
  match Hashtbl.find_opt t.index (space, k1, k2, obj) with
  | None -> None
  | Some id ->
    let off = id * width in
    let a = t.arena in
    Some (a.(off + 4), a.(off + 5), a.(off + 6), a.(off + 7))
