(* The parts of BENCHMARK.json that compare and smoke modes read. *)

module J = Fsam_obs.Json

type metric = {
  name : string;
  unit_ : string;
  better : string;  (** "lower" | "higher"; empty for per-layer metrics *)
  bound : float;  (** end-to-end only *)
}

type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let str j k = match J.member k j with Some (J.String s) -> s | _ -> ""

let num j k =
  match J.member k j with Some (J.Float f) -> f | Some (J.Int i) -> float_of_int i | _ -> nan

let list j k = match J.member k j with Some (J.List l) -> l | _ -> []

let metric j =
  { name = str j "name"; unit_ = str j "unit"; better = str j "better"; bound = num j "bound" }

let load path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match J.of_string text with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok j ->
    {
      workloads = List.map (fun w -> str w "name") (list j "workloads");
      end_to_end = List.map metric (list j "end_to_end");
      per_layer = List.map metric (list j "per_layer");
    }

(* A run's result line: (correct, attempted, failed, [name -> (value, unit)]). *)
let parse_result line =
  match J.of_string line with
  | Error e -> Error ("not a JSON result line: " ^ e)
  | Ok j ->
    let metrics =
      match J.member "metrics" j with
      | Some (J.Obj kvs) -> List.map (fun (k, m) -> (k, (num m "value", str m "unit"))) kvs
      | _ -> []
    in
    let int k = match J.member k j with Some (J.Int i) -> i | _ -> -1 in
    Ok (J.member "correct" j = Some (J.Bool true), int "attempted", int "failed", metrics)
