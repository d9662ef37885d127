(* Compare mode: alternating pairs of runs of two built benchmark binaries
   (A the base, B the change), with the verdict rule of the method this
   benchmark follows:

   - improved: B wins at least nine tenths of the pairs (ties count for
     neither side) and the medians differ by more than A's interquartile
     distance;
   - unresolved: A's own spread (interquartile distance over median) is
     wider than the metric's bound, unless every B run beats every A run;
   - regressed: B's median is worse than A's by more than the bound;
   - no-worse: otherwise. *)

let run_once bin ~workload ~seed ~seconds =
  let args =
    [ "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; seconds; "--trace"; "0" ]
  in
  match Proc.capture bin args with
  | lines, Unix.WEXITED 0 -> (
    match Proc.last lines with
    | None -> Error "no output"
    | Some l -> (
      match Spec.parse_result l with
      | Ok (true, _, _, m) -> Ok m
      | Ok (false, _, failed, _) -> Error (Printf.sprintf "%d failed operations" failed)
      | Error e -> Error e))
  | _ -> Error (Printf.sprintf "%s exited with an error" bin)

let verdict (m : Spec.metric) pairs =
  let a = List.map fst pairs and b = List.map snd pairs in
  (* [worse x y]: how much worse y is than x, as a share of x *)
  let worse x y = (if m.Spec.better = "higher" then x -. y else y -. x) /. x in
  let q1a, meda, q3a = Stat.quartiles a and _, medb, _ = Stat.quartiles b in
  let wins = List.length (List.filter (fun (x, y) -> worse x y < 0.) pairs) in
  let win_frac = float_of_int wins /. float_of_int (List.length pairs) in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> worse x y < 0.) a) b
  in
  let v =
    if win_frac >= 0.9 && Float.abs (medb -. meda) > q3a -. q1a && worse meda medb < 0. then
      "improved"
    else if (q3a -. q1a) /. meda > m.Spec.bound && not all_better then "unresolved"
    else if worse meda medb > m.Spec.bound then "regressed"
    else "no-worse"
  in
  (v, win_frac, (medb -. meda) /. meda)

let run ~benchmark ~a ~b ~pairs ~seed ~seconds ~workloads =
  let spec = Spec.load benchmark in
  let workloads = if workloads = [] then spec.Spec.workloads else workloads in
  let exit_code = ref 0 in
  List.iter
    (fun workload ->
      let results =
        List.init pairs (fun i ->
            (* alternate which side runs first *)
            let go bin =
              match run_once bin ~workload ~seed ~seconds with
              | Ok m -> m
              | Error e -> failwith (Printf.sprintf "%s on %s: %s" bin workload e)
            in
            if i mod 2 = 0 then
              let ra = go a in
              (ra, go b)
            else
              let rb = go b in
              (go a, rb))
      in
      Printf.printf "%s: %d pairs, seed %d, %s s per run\n" workload pairs seed seconds;
      Printf.printf "  %-12s %-34s %-34s %6s %8s  %s\n" "metric" "A median [q1, q3]"
        "B median [q1, q3]" "B wins" "change" "verdict";
      List.iter
        (fun (m : Spec.metric) ->
          let value r = fst (List.assoc m.Spec.name r) in
          let pairs = List.map (fun (ra, rb) -> (value ra, value rb)) results in
          let q l =
            let q1, med, q3 = Stat.quartiles l in
            Printf.sprintf "%.6g [%.6g, %.6g]" med q1 q3
          in
          let v, win_frac, change = verdict m pairs in
          if v = "regressed" then exit_code := 1;
          Printf.printf "  %-12s %-34s %-34s %5.0f%% %+7.2f%%  %s\n" m.Spec.name
            (q (List.map fst pairs))
            (q (List.map snd pairs))
            (100. *. win_frac) (100. *. change) v)
        spec.Spec.end_to_end)
    workloads;
  !exit_code
