let () =
  Alcotest.run "fsam"
    [
      ("iset", Test_iset.suite);
      ("dsa", Test_dsa.suite);
      ("graph", Test_graph.suite);
      ("ir", Test_ir.suite);
      ("andersen", Test_andersen.suite);
      ("mta", Test_mta.suite);
      ("fsam", Test_fsam.suite);
      ("props", Test_props.suite);
      ("frontend", Test_frontend.suite);
      ("workloads", Test_workloads.suite);
      ("svfg", Test_svfg.suite);
      ("clients", Test_clients.suite);
      ("races", Test_races.suite);
      ("misc", Test_misc.suite);
      ("minic-files", Test_minic_files.suite);
      ("pretty", Test_pretty.suite);
      ("interp", Test_interp.suite);
      ("leaks", Test_leaks.suite);
      ("minic-suite", Test_minic_suite.suite);
      ("explore", Test_explore.suite);
      ("steensgaard", Test_steens.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("simplify", Test_simplify.suite);
      ("obs", Test_obs.suite);
      ("query-index", Test_query_index.suite);
      ("prov", Test_prov.suite);
      ("profile", Test_profile.suite);
      ("serve", Test_serve.suite);
      ("flight", Test_flight.suite);
      ("warm-cold", Test_warm_cold.suite);
    ]
