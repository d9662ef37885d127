(* Integration: the shipped MiniC sample programs compile and analyze with
   the expected results. The files are declared as test dependencies in
   test/dune, so dune copies them next to the test executable; the path is
   resolved from the executable, not the working directory. *)

module D = Fsam_core.Driver

let compile_file path =
  let ic = open_in_bin path in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Fsam_frontend.Lower.compile_string src

let dir = Filename.concat (Filename.dirname Sys.executable_name) "../examples/minic/"

let pt_of d prog prefix =
  let best = ref [] in
  for v = 0 to Fsam_ir.Prog.n_vars prog - 1 do
    let n = Fsam_ir.Prog.var_name prog v in
    if
      n = prefix
      || String.length n > String.length prefix
         && String.sub n 0 (String.length prefix + 1) = prefix ^ "#"
    then begin
      let names = D.pt_names d v in
      if names <> [] then best := names
    end
  done;
  !best

let test_fig1a_file () =
  let prog = compile_file (dir ^ "fig1a.c") in
  let d = D.run prog in
  Alcotest.(check (list string)) "pt(c) = {y, z}" [ "y"; "z" ] (pt_of d prog "c")

let test_wordcount_file () =
  let prog = compile_file (dir ^ "wordcount.c") in
  let d = D.run prog in
  Alcotest.(check (list string)) "pt(final) = {result}" [ "result" ] (pt_of d prog "final");
  Alcotest.(check int) "no races (locked + joined)" 0
    (List.length (Fsam_core.Races.detect d))

let test_taskqueue_file () =
  let prog = compile_file (dir ^ "taskqueue.c") in
  let d = D.run prog in
  (* dequeue returns the enqueued tasks *)
  let t = pt_of d prog "t" in
  Alcotest.(check bool) "dequeues task_a or task_b" true
    (List.mem "task_a" t || List.mem "task_b" t);
  Alcotest.(check int) "queue fully protected: no races" 0
    (List.length (Fsam_core.Races.detect d));
  Alcotest.(check int) "single lock: no deadlock" 0
    (List.length (Fsam_core.Deadlocks.detect d))

let test_deadlock_file () =
  let prog = compile_file (dir ^ "deadlock.c") in
  let d = D.run prog in
  Alcotest.(check bool) "AB-BA reported" true
    (List.length (Fsam_core.Deadlocks.detect d) >= 1)

let suite =
  [
    Alcotest.test_case "fig1a.c" `Quick test_fig1a_file;
    Alcotest.test_case "wordcount.c" `Quick test_wordcount_file;
    Alcotest.test_case "taskqueue.c" `Quick test_taskqueue_file;
    Alcotest.test_case "deadlock.c" `Quick test_deadlock_file;
  ]
