(* The FSAM end-to-end benchmark (see README.md).

     main.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
              [--size mid|tiny] [--trace-dir DIR]
     main.exe compare --a BIN --b BIN [--pairs N] [--seed N] [--seconds S]
              [--workload NAME]... [--benchmark FILE]
     main.exe smoke [--benchmark FILE]

   A run of one workload prints human-readable rows, then as its last line
   one JSON object {correct, attempted, failed, metrics}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. Several
   (or no) --workload flags run each workload in a process of its own. *)

module J = Fsam_obs.Json

let workloads = [ "cold-mid"; "cold-suite"; "edit-mid"; "query-mid" ]

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--size \
     mid|tiny] [--trace-dir DIR]\n\
    \       main.exe compare --a BIN --b BIN [--pairs N] [--seed N] [--seconds S] [--workload \
     NAME]... [--benchmark FILE]\n\
    \       main.exe smoke [--benchmark FILE]";
  exit 2

(* --flag value pairs; repeated flags keep every value, in order *)
let parse_flags args =
  let rec go acc = function
    | [] -> List.rev acc
    | k :: v :: tl when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) tl
    | a :: _ ->
      Printf.eprintf "unexpected argument %S\n" a;
      usage ()
  in
  go [] args

let known flags allowed =
  List.iter
    (fun (k, _) ->
      if not (List.mem k allowed) then begin
        Printf.eprintf "unknown flag --%s\n" k;
        usage ()
      end)
    flags

let get flags k ~default = match List.assoc_opt k flags with Some v -> v | None -> default
let all flags k = List.filter_map (fun (k', v) -> if k' = k then Some v else None) flags

let int_of flag s =
  match int_of_string_opt s with
  | Some n -> n
  | None ->
    Printf.eprintf "--%s expects an integer, got %S\n" flag s;
    usage ()

let float_of flag s =
  match float_of_string_opt s with
  | Some x when x >= 0. -> x
  | _ ->
    Printf.eprintf "--%s expects a non-negative number, got %S\n" flag s;
    usage ()

let result_line ~attempted ~failed metrics =
  J.to_string ~minify:true
    (J.Obj
       [
         ("correct", J.Bool (failed = 0));
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, v, u) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
                metrics) );
       ])

let run_one ~workload ~size ~seed ~seconds ~traced ~trace_dir =
  let attempted, failed, metrics =
    match workload with
    | "cold-mid" -> Cold.run ~size ~seed ~seconds ~traced ~trace_dir `Mid
    | "cold-suite" -> Cold.run ~size ~seed ~seconds ~traced ~trace_dir `Suite
    | "edit-mid" -> Serve.edit_mid ~size ~seed ~seconds ~traced ~trace_dir
    | _ -> Serve.query_mid ~size ~seed ~seconds ~traced ~trace_dir
  in
  print_endline (result_line ~attempted ~failed metrics);
  if failed = 0 then 0 else 1

let run_mode flags =
  known flags [ "workload"; "seed"; "seconds"; "trace"; "size"; "trace-dir" ];
  let names = all flags "workload" in
  List.iter
    (fun w ->
      if not (List.mem w workloads) then begin
        Printf.eprintf "unknown workload %S (%s)\n" w (String.concat ", " workloads);
        usage ()
      end)
    names;
  let seed = int_of "seed" (get flags "seed" ~default:"1") in
  let seconds = float_of "seconds" (get flags "seconds" ~default:"15") in
  let traced =
    match get flags "trace" ~default:"0" with
    | "0" -> false
    | "1" -> true
    | s ->
      Printf.eprintf "--trace expects 0 or 1, got %S\n" s;
      usage ()
  in
  let size =
    match get flags "size" ~default:"mid" with
    | "mid" -> Inputs.Mid
    | "tiny" -> Inputs.Tiny
    | s ->
      Printf.eprintf "--size expects mid or tiny, got %S\n" s;
      usage ()
  in
  let trace_dir = get flags "trace-dir" ~default:"bench/e2e/_trace" in
  match names with
  | [ workload ] -> run_one ~workload ~size ~seed ~seconds ~traced ~trace_dir
  | _ ->
    (* one process per workload, so peak RSS and process-global state
       belong to that workload alone *)
    let passthrough = List.filter (fun (k, _) -> k <> "workload") flags in
    List.fold_left
      (fun code workload ->
        let args =
          ("--workload" :: workload :: List.concat_map (fun (k, v) -> [ "--" ^ k; v ]) passthrough)
        in
        let lines, status = Proc.capture Sys.executable_name args in
        List.iter print_endline lines;
        match status with Unix.WEXITED 0 -> code | _ -> 1)
      0
      (if names = [] then workloads else names)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let code =
    match args with
    | "compare" :: rest ->
      let flags = parse_flags rest in
      known flags [ "a"; "b"; "pairs"; "seed"; "seconds"; "workload"; "benchmark" ];
      let need k = match List.assoc_opt k flags with Some v -> v | None -> usage () in
      Compare.run
        ~benchmark:(get flags "benchmark" ~default:"BENCHMARK.json")
        ~a:(need "a") ~b:(need "b")
        ~pairs:(int_of "pairs" (get flags "pairs" ~default:"10"))
        ~seed:(int_of "seed" (get flags "seed" ~default:"1"))
        ~seconds:(get flags "seconds" ~default:"15")
        ~workloads:(all flags "workload")
    | "smoke" :: rest ->
      let flags = parse_flags rest in
      known flags [ "benchmark" ];
      Smoke.run ~benchmark:(get flags "benchmark" ~default:"BENCHMARK.json")
    | _ -> run_mode (parse_flags args)
  in
  exit code
