type counter = { mutable c_value : int }
type gauge = { mutable g_value : int }

(* buckets.(0): values <= 0; buckets.(k): values in (2^(k-2), 2^(k-1)] *)
type histogram = {
  mutable h_count : int;
  mutable h_sum : int;
  h_buckets : int array;
}

type metric = C of counter | G of gauge | H of histogram
type registry = (string, metric) Hashtbl.t

let create_registry () : registry = Hashtbl.create 16

(* The process-global default. [Driver.run] resets it at pipeline entry, so
   long-lived components (the serve daemon) keep their own registries. *)
let global : registry = create_registry ()

let reset ?(reg = global) () = Hashtbl.reset reg

let kind_error name = invalid_arg (Printf.sprintf "Metrics: %S has another kind" name)

let counter ?(reg = global) name =
  match Hashtbl.find_opt reg name with
  | Some (C c) -> c
  | Some _ -> kind_error name
  | None ->
    let c = { c_value = 0 } in
    Hashtbl.replace reg name (C c);
    c

let incr c = c.c_value <- c.c_value + 1

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters are monotonic";
  c.c_value <- c.c_value + n

let counter_value c = c.c_value

let gauge ?(reg = global) name =
  match Hashtbl.find_opt reg name with
  | Some (G g) -> g
  | Some _ -> kind_error name
  | None ->
    let g = { g_value = 0 } in
    Hashtbl.replace reg name (G g);
    g

let set g v = g.g_value <- v
let set_max g v = if v > g.g_value then g.g_value <- v
let gauge_value g = g.g_value

let n_buckets = 63

let histogram ?(reg = global) name =
  match Hashtbl.find_opt reg name with
  | Some (H h) -> h
  | Some _ -> kind_error name
  | None ->
    let h = { h_count = 0; h_sum = 0; h_buckets = Array.make n_buckets 0 } in
    Hashtbl.replace reg name (H h);
    h

let bucket_of v =
  if v <= 0 then 0
  else begin
    let k = ref 1 and ub = ref 1 in
    while v > !ub && !k < n_buckets - 1 do
      Stdlib.incr k;
      ub := !ub * 2
    done;
    !k
  end

let bucket_le = function 0 -> 0 | k -> 1 lsl (k - 1)

let observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let histogram_count h = h.h_count
let histogram_sum h = h.h_sum

(* Quantile estimate from the power-of-two buckets: the upper bound of the
   first bucket whose cumulative count reaches q * count. Exact for values
   that are bucket bounds; otherwise an upper bound within 2x. *)
let quantile h q =
  if h.h_count = 0 then 0
  else begin
    let target = max 1 (min h.h_count (int_of_float (ceil (q *. float_of_int h.h_count)))) in
    let rec go k cum =
      if k >= n_buckets - 1 then bucket_le (n_buckets - 1)
      else
        let cum = cum + h.h_buckets.(k) in
        if cum >= target then bucket_le k else go (k + 1) cum
    in
    go 0 0
  end

let find_counter ?(reg = global) name =
  match Hashtbl.find_opt reg name with Some (C c) -> Some c.c_value | _ -> None

let find_gauge ?(reg = global) name =
  match Hashtbl.find_opt reg name with Some (G g) -> Some g.g_value | _ -> None

let find_histogram ?(reg = global) name =
  match Hashtbl.find_opt reg name with Some (H h) -> Some h | _ -> None

let sorted_bindings reg =
  Hashtbl.fold (fun name m acc -> (name, m) :: acc) reg []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let histograms ?(reg = global) () =
  List.filter_map (function name, H h -> Some (name, h) | _ -> None) (sorted_bindings reg)

let to_json ?(reg = global) () =
  let named p =
    List.filter_map
      (fun (name, m) -> match p m with Some j -> Some (name, j) | None -> None)
      (sorted_bindings reg)
  in
  let histo_json h =
    let buckets = ref [] in
    for k = n_buckets - 1 downto 0 do
      if h.h_buckets.(k) > 0 then
        buckets :=
          Json.Obj [ ("le", Json.Int (bucket_le k)); ("count", Json.Int h.h_buckets.(k)) ]
          :: !buckets
    done;
    Json.Obj
      [
        ("count", Json.Int h.h_count);
        ("sum", Json.Int h.h_sum);
        ("p50", Json.Int (quantile h 0.50));
        ("p95", Json.Int (quantile h 0.95));
        ("p99", Json.Int (quantile h 0.99));
        ("buckets", Json.List !buckets);
      ]
  in
  Json.Obj
    [
      ("counters", Json.Obj (named (function C c -> Some (Json.Int c.c_value) | _ -> None)));
      ("gauges", Json.Obj (named (function G g -> Some (Json.Int g.g_value) | _ -> None)));
      ("histograms", Json.Obj (named (function H h -> Some (histo_json h) | _ -> None)));
    ]

(* --- Prometheus text exposition (version 0.0.4) --- *)

(* Metric names admit [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted/dashed names
   ("serve.req.points-to.latency_us") flatten to underscores. *)
let prometheus_name name =
  let b = Bytes.of_string name in
  for i = 0 to Bytes.length b - 1 do
    let c = Bytes.get b i in
    let ok =
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
      || (i > 0 && c >= '0' && c <= '9')
    in
    if not ok then Bytes.set b i '_'
  done;
  let s = Bytes.to_string b in
  if s = "" then "_" else s

let to_prometheus ?(regs = [ global ]) () =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let emit (name, m) =
    let pname = prometheus_name name in
    match m with
    | C c ->
      line "# TYPE %s counter" pname;
      line "%s %d" pname c.c_value
    | G g ->
      line "# TYPE %s gauge" pname;
      line "%s %d" pname g.g_value
    | H h ->
      line "# TYPE %s histogram" pname;
      let cum = ref 0 in
      for k = 0 to n_buckets - 1 do
        cum := !cum + h.h_buckets.(k);
        (* only materialize boundaries that carry information: occupied
           buckets (exposition stays compact, cumulative counts exact) *)
        if h.h_buckets.(k) > 0 then line "%s_bucket{le=\"%d\"} %d" pname (bucket_le k) !cum
      done;
      line "%s_bucket{le=\"+Inf\"} %d" pname h.h_count;
      line "%s_sum %d" pname h.h_sum;
      line "%s_count %d" pname h.h_count
  in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun reg ->
      List.iter
        (fun (name, m) ->
          let pname = prometheus_name name in
          if not (Hashtbl.mem seen pname) then begin
            Hashtbl.replace seen pname ();
            emit (name, m)
          end)
        (sorted_bindings reg))
    regs;
  Buffer.contents buf
