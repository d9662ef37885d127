(* Flight recorder: a fixed-size ring journaling the last N request
   summaries of the serve daemon, one flat int array with a single writer:
   [note] writes all slot fields before bumping [n], so a
   reader on the writer's thread (the dump op, the crash flush, a SIGUSR1
   handler — all run at safepoints of the protocol thread) never sees a
   torn entry. Strings (op names, error codes) are interned into a
   side table so the ring itself stays unboxed. *)

type entry = {
  f_seq : int;
  f_t_us : int;  (* monotonic timestamp, us *)
  f_op : string;
  f_us : int;
  f_cpu_us : int;
  f_ok : bool;
  f_err : string option;
  f_gen : int;
  f_dirty : int;  (* changed functions for edits; -1 when n/a *)
  f_bytes_in : int;
  f_bytes_out : int;
}

let width = 11

type t = {
  cap : int;
  buf : int array;
  mutable n : int;  (* entries ever recorded *)
  mutable strings : string array;
  mutable n_strings : int;
  intern : (string, int) Hashtbl.t;
}

let create ?(cap = 256) () =
  if cap <= 0 then invalid_arg "Flight.create: cap must be positive";
  {
    cap;
    buf = Array.make (cap * width) 0;
    n = 0;
    strings = Array.make 16 "";
    n_strings = 0;
    intern = Hashtbl.create 16;
  }

let intern t s =
  match Hashtbl.find_opt t.intern s with
  | Some i -> i
  | None ->
    if t.n_strings = Array.length t.strings then begin
      let bigger = Array.make (2 * t.n_strings) "" in
      Array.blit t.strings 0 bigger 0 t.n_strings;
      t.strings <- bigger
    end;
    let i = t.n_strings in
    t.strings.(i) <- s;
    t.n_strings <- i + 1;
    Hashtbl.replace t.intern s i;
    i

let note t ~seq ~op ~us ~cpu_us ~ok ?err ~gen ~dirty ~bytes_in ~bytes_out () =
  let op_i = intern t op in
  let err_i = match err with None -> -1 | Some e -> intern t e in
  let base = width * (t.n mod t.cap) in
  t.buf.(base) <- seq;
  t.buf.(base + 1) <- Monotonic.now_us ();
  t.buf.(base + 2) <- op_i;
  t.buf.(base + 3) <- us;
  t.buf.(base + 4) <- cpu_us;
  t.buf.(base + 5) <- (if ok then 1 else 0);
  t.buf.(base + 6) <- err_i;
  t.buf.(base + 7) <- gen;
  t.buf.(base + 8) <- dirty;
  t.buf.(base + 9) <- bytes_in;
  t.buf.(base + 10) <- bytes_out;
  t.n <- t.n + 1

let cap t = t.cap
let recorded t = t.n
let dropped t = max 0 (t.n - t.cap)

let entry_at t base =
  {
    f_seq = t.buf.(base);
    f_t_us = t.buf.(base + 1);
    f_op = t.strings.(t.buf.(base + 2));
    f_us = t.buf.(base + 3);
    f_cpu_us = t.buf.(base + 4);
    f_ok = t.buf.(base + 5) = 1;
    f_err = (let i = t.buf.(base + 6) in if i < 0 then None else Some t.strings.(i));
    f_gen = t.buf.(base + 7);
    f_dirty = t.buf.(base + 8);
    f_bytes_in = t.buf.(base + 9);
    f_bytes_out = t.buf.(base + 10);
  }

(* Oldest-first. *)
let entries t =
  let live = min t.n t.cap in
  let first = if t.n > t.cap then t.n mod t.cap else 0 in
  List.init live (fun i -> entry_at t (width * ((first + i) mod t.cap)))

let entry_json e =
  Json.Obj
    ([
       ("seq", Json.Int e.f_seq);
       ("t_us", Json.Int e.f_t_us);
       ("op", Json.String e.f_op);
       ("us", Json.Int e.f_us);
       ("cpu_us", Json.Int e.f_cpu_us);
       ("ok", Json.Bool e.f_ok);
     ]
    @ (match e.f_err with Some c -> [ ("error", Json.String c) ] | None -> [])
    @ [ ("gen", Json.Int e.f_gen) ]
    @ (if e.f_dirty >= 0 then [ ("dirty_fns", Json.Int e.f_dirty) ] else [])
    @ [ ("bytes_in", Json.Int e.f_bytes_in); ("bytes_out", Json.Int e.f_bytes_out) ])

let to_json t =
  Json.Obj
    [
      ("cap", Json.Int t.cap);
      ("recorded", Json.Int t.n);
      ("dropped", Json.Int (dropped t));
      ("entries", Json.List (List.map entry_json (entries t)));
    ]

(* The process-wide recorder the crash-flush path reaches for: a crashing
   daemon's [Telemetry.flush_now] must be able to dump the tail without a
   handle threaded through every layer. *)
let current_ref : t option ref = ref None
let set_current r = current_ref := r
let current () = !current_ref
