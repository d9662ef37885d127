(* Smoke mode (run by `dune runtest`): every workload of BENCHMARK.json at
   tiny size, untraced and traced, each in its own process. Each run must
   succeed with no failed operation and print exactly the metrics
   BENCHMARK.json declares for its mode, with the declared units. *)

let check_run ~metrics ~workload ~trace =
  let err_path =
    Filename.temp_file ~temp_dir:Filename.current_dir_name "fsam_e2e_smoke" ".stderr"
  in
  let err_fd = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let args =
    [
      "--workload"; workload; "--seed"; "1"; "--seconds"; "0.3"; "--trace"; string_of_int trace;
      "--size"; "tiny"; "--trace-dir"; "bench/e2e/_trace/smoke";
    ]
  in
  let lines, status = Proc.capture ~stderr:err_fd Sys.executable_name args in
  Unix.close err_fd;
  let problems =
    match (status, Proc.last lines) with
    | Unix.WEXITED 0, Some line -> (
      match Spec.parse_result line with
      | Error e -> [ e ]
      | Ok (correct, attempted, failed, got) ->
        (if correct && failed = 0 && attempted >= 1 then []
         else [ Printf.sprintf "correct %b, attempted %d, failed %d" correct attempted failed ])
        @ List.filter_map
            (fun (m : Spec.metric) ->
              match List.assoc_opt m.Spec.name got with
              | None -> Some (m.Spec.name ^ " missing")
              | Some (_, u) when u <> m.Spec.unit_ ->
                Some (Printf.sprintf "%s has unit %S, declared %S" m.Spec.name u m.Spec.unit_)
              | Some (v, _) when Float.is_nan v -> Some (m.Spec.name ^ " is not a number")
              | Some (v, _) when trace = 0 && v <= 0. ->
                Some (Printf.sprintf "%s = %g, end-to-end metrics must be positive" m.Spec.name v)
              | Some _ -> None)
            metrics
        @ List.filter_map
            (fun (name, _) ->
              if List.exists (fun (m : Spec.metric) -> m.Spec.name = name) metrics then None
              else Some (name ^ " printed but not declared"))
            got)
    | _ -> [ "run failed" ]
  in
  if problems <> [] then begin
    Printf.printf "FAIL %s --trace %d:\n" workload trace;
    List.iter (Printf.printf "  %s\n") problems;
    List.iter (Printf.printf "  | %s\n") lines;
    let ic = open_in err_path in
    (try
       while true do
         Printf.printf "  ! %s\n" (input_line ic)
       done
     with End_of_file -> ());
    close_in ic
  end
  else Printf.printf "ok   %s --trace %d\n" workload trace;
  Sys.remove err_path;
  problems = []

let run ~benchmark =
  let spec = Spec.load benchmark in
  let failures =
    List.fold_left
      (fun n workload ->
        let untraced = check_run ~metrics:spec.Spec.end_to_end ~workload ~trace:0 in
        let traced = check_run ~metrics:spec.Spec.per_layer ~workload ~trace:1 in
        n + Bool.to_int (not untraced) + Bool.to_int (not traced))
      0 spec.Spec.workloads
  in
  if failures = 0 then 0 else 1
