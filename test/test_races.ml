(* The race client against its oracle: [Races.detect] (a filter over the
   SVFG's recorded [THREAD-VF] pair verdicts) must report exactly what the
   all-pairs scan in [Oracle.Race_oracle] reports, under the default config and
   each of the paper's three ablations. *)

module D = Fsam_core.Driver

let configs =
  [
    ("full", D.default_config);
    ("no-interleaving", D.no_interleaving);
    ("no-value-flow", D.no_value_flow);
    ("no-lock", D.no_lock);
  ]

let render d rs = List.map (Format.asprintf "%a" (Fsam_core.Races.pp_race d)) rs

let check_all ~name prog =
  List.iter
    (fun (cname, config) ->
      let d = D.run ~config prog in
      Alcotest.(check (list string))
        (Printf.sprintf "%s/%s" name cname)
        (render d (Oracle.Race_oracle.detect d))
        (render d (Fsam_core.Races.detect d)))
    configs

let prop_rand_ir =
  QCheck.Test.make ~count:40 ~name:"races == oracle (random IR)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      check_all ~name:(Printf.sprintf "rand_ir/%d" seed)
        (Fsam_workloads.Rand_prog.generate ~seed ~size:26 ());
      true)

let prop_rand_minic =
  QCheck.Test.make ~count:40 ~name:"races == oracle (random MiniC)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      check_all ~name:(Printf.sprintf "rand_minic/%d" seed)
        (Fsam_frontend.Lower.compile_string (Fsam_workloads.Rand_minic.generate ~seed ~size:18));
      true)

let test_suite_programs () =
  List.iter
    (fun (s : Fsam_workloads.Suite.spec) ->
      check_all ~name:s.name (s.build (max 10 (s.scale / 4))))
    Fsam_workloads.Suite.all

let test_minic_examples () =
  let dir = Filename.concat (Filename.dirname Sys.executable_name) "../examples/minic" in
  let files =
    List.sort compare
      (List.filter (fun f -> Filename.check_suffix f ".c") (Array.to_list (Sys.readdir dir)))
  in
  Alcotest.(check bool) "examples found" true (files <> []);
  List.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat dir f) in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check_all ~name:f (Fsam_frontend.Lower.compile_string src))
    files

let suite =
  [
    Alcotest.test_case "races == oracle (Table 1 suite)" `Slow test_suite_programs;
    Alcotest.test_case "races == oracle (examples/minic)" `Quick test_minic_examples;
    QCheck_alcotest.to_alcotest prop_rand_ir;
    QCheck_alcotest.to_alcotest prop_rand_minic;
  ]
