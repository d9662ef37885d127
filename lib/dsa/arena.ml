(* Flat int stores. See the interface for the sharing discipline; nothing
   here allocates per element beyond the backing arrays, and nothing stores
   a boxed key — probes and row walks are array reads on contiguous ints. *)

module Buf = struct
  type t = { mutable data : int array; mutable len : int }

  let create ?(capacity = 16) () = { data = Array.make (max 1 capacity) 0; len = 0 }
  let length b = b.len

  let ensure b n =
    if n > Array.length b.data then begin
      let cap = ref (2 * Array.length b.data) in
      while n > !cap do
        cap := 2 * !cap
      done;
      let data = Array.make !cap 0 in
      Array.blit b.data 0 data 0 b.len;
      b.data <- data
    end

  let push b v =
    ensure b (b.len + 1);
    b.data.(b.len) <- v;
    b.len <- b.len + 1;
    b.len - 1

  let get b i =
    if i < 0 || i >= b.len then invalid_arg "Arena.Buf.get";
    b.data.(i)

  let set b i v =
    if i < 0 || i >= b.len then invalid_arg "Arena.Buf.set";
    b.data.(i) <- v

  let to_array b = Array.sub b.data 0 b.len
  let copy b = { data = Array.copy b.data; len = b.len }
end

module Intmap = struct
  (* keys and slots in one array each; [-1] marks an empty slot, so keys
     must be >= 0. Capacity is a power of two and load stays <= 1/2: linear
     probing then terminates and averages O(1). *)
  type t = { mutable keys : int array; mutable vals : int array; mutable n : int }

  let create ?(capacity = 16) () =
    let cap = ref 16 in
    while !cap < 2 * capacity do
      cap := 2 * !cap
    done;
    { keys = Array.make !cap (-1); vals = Array.make !cap 0; n = 0 }

  let length m = m.n

  (* multiplicative scramble (Knuth) so dense packed keys spread over slots *)
  let slot_of cap key = key * 0x9E3779B1 land max_int land (cap - 1)

  let rec probe keys cap i key =
    let k = keys.(i) in
    if k = key || k = -1 then i else probe keys cap ((i + 1) land (cap - 1)) key

  let grow m =
    let cap = 2 * Array.length m.keys in
    let keys = Array.make cap (-1) and vals = Array.make cap 0 in
    Array.iteri
      (fun i k ->
        if k >= 0 then begin
          let j = probe keys cap (slot_of cap k) k in
          keys.(j) <- k;
          vals.(j) <- m.vals.(i)
        end)
      m.keys;
    m.keys <- keys;
    m.vals <- vals

  let set m ~key v =
    if key < 0 then invalid_arg "Arena.Intmap.set: negative key";
    let cap = Array.length m.keys in
    let i = probe m.keys cap (slot_of cap key) key in
    if m.keys.(i) = -1 then begin
      m.keys.(i) <- key;
      m.vals.(i) <- v;
      m.n <- m.n + 1;
      if 2 * m.n > cap then grow m
    end
    else m.vals.(i) <- v

  let find m ~key ~default =
    if key < 0 then default
    else begin
      let cap = Array.length m.keys in
      let i = probe m.keys cap (slot_of cap key) key in
      if m.keys.(i) = key then m.vals.(i) else default
    end

  let find_or_add m ~key mk =
    let v = find m ~key ~default:min_int in
    if v <> min_int then v
    else begin
      let v = mk () in
      set m ~key v;
      v
    end

  let iter m f =
    Array.iteri (fun i k -> if k >= 0 then f ~key:k m.vals.(i)) m.keys

  let copy m = { keys = Array.copy m.keys; vals = Array.copy m.vals; n = m.n }
end

module Csr = struct
  type t = { offsets : int array; (* n_rows + 1 *) data : int array }

  let build ~n_rows iter =
    let offsets = Array.make (n_rows + 1) 0 in
    iter (fun ~row ~value:_ -> offsets.(row + 1) <- offsets.(row + 1) + 1);
    for r = 1 to n_rows do
      offsets.(r) <- offsets.(r) + offsets.(r - 1)
    done;
    let data = Array.make offsets.(n_rows) 0 in
    (* fill cursors start at each row's offset and advance as values land *)
    let cursor = Array.sub offsets 0 n_rows in
    iter (fun ~row ~value ->
        data.(cursor.(row)) <- value;
        cursor.(row) <- cursor.(row) + 1);
    { offsets; data }

  let n_rows c = Array.length c.offsets - 1
  let degree c r = c.offsets.(r + 1) - c.offsets.(r)

  let iter_row c r f =
    for i = c.offsets.(r) to c.offsets.(r + 1) - 1 do
      f c.data.(i)
    done

  let exists_row c r p =
    let rec go i stop = i < stop && (p c.data.(i) || go (i + 1) stop) in
    go c.offsets.(r) c.offsets.(r + 1)

  let mem_row c r v = exists_row c r (fun x -> x = v)
end
