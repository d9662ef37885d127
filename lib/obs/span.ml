type t = {
  name : string;
  start_s : float;
  dur_s : float;
  cpu_s : float;
  minor_words : float;
  major_words : float;
  children : t list;
}

type frame = {
  f_name : string;
  f_mono : float; (* monotonic: the duration base, NTP-step immune *)
  f_cpu : float;
  f_minor : float;
  f_major : float;
  mutable f_children_rev : t list;
}

(* One wall-clock epoch paired with a monotonic reading taken at the same
   instant. Every span start is [epoch_wall + (mono - epoch_mono)]: absolute
   enough to align traces across processes, yet immune to NTP steps between
   spans — two spans can never appear to start out of order. *)
let epoch_wall = Unix.gettimeofday ()
let epoch_mono = Monotonic.now_s ()
let wall_of_mono m = epoch_wall +. (m -. epoch_mono)

let stack : frame list ref = ref []
let roots_rev : t list ref = ref []

let reset () = roots_rev := []

let with_timed ~name f =
  (* [Gc.minor_words] reads the allocation pointer, so it is exact between
     collections; [quick_stat]'s minor_words field only updates at GC points
     and would report 0 for short spans. Major words stay on [quick_stat] —
     both are collection-free. *)
  let gc0 = Gc.quick_stat () in
  let fr =
    {
      f_name = name;
      f_mono = Monotonic.now_s ();
      f_cpu = Sys.time ();
      f_minor = Gc.minor_words ();
      f_major = gc0.Gc.major_words;
      f_children_rev = [];
    }
  in
  stack := fr :: !stack;
  let completed = ref None in
  let finally () =
    (* Unwind to our own frame: spans opened below us that escaped via an
       exception are discarded rather than corrupting the tree. *)
    let rec drop = function
      | s :: rest -> if s == fr then rest else drop rest
      | [] -> []
    in
    stack := drop !stack;
    let gc1 = Gc.quick_stat () in
    let sp =
      {
        name = fr.f_name;
        start_s = wall_of_mono fr.f_mono;
        dur_s = Monotonic.elapsed_s ~since_s:fr.f_mono;
        cpu_s = Sys.time () -. fr.f_cpu;
        minor_words = Gc.minor_words () -. fr.f_minor;
        major_words = gc1.Gc.major_words -. fr.f_major;
        children = List.rev fr.f_children_rev;
      }
    in
    (match !stack with
    | parent :: _ -> parent.f_children_rev <- sp :: parent.f_children_rev
    | [] -> roots_rev := sp :: !roots_rev);
    completed := Some sp
  in
  let v = Fun.protect ~finally f in
  (v, Option.get !completed)

let with_ ~name f = fst (with_timed ~name f)

let roots () = List.rev !roots_rev

let snapshot () =
  let closed = List.rev !roots_rev in
  match !stack with
  | [] -> closed
  | frames ->
    (* Materialise the open stack as a chain of still-running spans: the
       innermost open frame nests inside the next one out, each with its
       already-completed children first and dur measured to now. *)
    let now_mono = Monotonic.now_s () in
    let cpu = Sys.time () in
    let minor = Gc.minor_words () in
    let major = (Gc.quick_stat ()).Gc.major_words in
    let open_roots =
      List.fold_left
        (fun inner fr ->
          [
            {
              name = fr.f_name;
              start_s = wall_of_mono fr.f_mono;
              dur_s = now_mono -. fr.f_mono;
              cpu_s = cpu -. fr.f_cpu;
              minor_words = minor -. fr.f_minor;
              major_words = major -. fr.f_major;
              children = List.rev fr.f_children_rev @ inner;
            };
          ])
        [] frames
    in
    closed @ open_roots

let rec count sp = List.fold_left (fun acc c -> acc + count c) 1 sp.children

let distinct_names forest =
  let tbl = Hashtbl.create 32 in
  let rec go sp =
    Hashtbl.replace tbl sp.name ();
    List.iter go sp.children
  in
  List.iter go forest;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let find name forest =
  let rec go = function
    | [] -> None
    | sp :: rest -> (
      if String.equal sp.name name then Some sp
      else
        match go sp.children with
        | Some _ as r -> r
        | None -> go rest)
  in
  go forest

let duration name root = match find name [ root ] with Some sp -> sp.dur_s | None -> 0.

let rec to_json sp =
  Json.Obj
    [
      ("name", Json.String sp.name);
      ("start_s", Json.Float sp.start_s);
      ("dur_s", Json.Float sp.dur_s);
      ("cpu_s", Json.Float sp.cpu_s);
      ("minor_words", Json.Float sp.minor_words);
      ("major_words", Json.Float sp.major_words);
      ("children", Json.List (List.map to_json sp.children));
    ]
