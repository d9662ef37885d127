(* Process plumbing: run a measurement in a forked child, read peak RSS.

   A cold sample runs in a fresh child because a real CLI run starts with
   empty Iset hash-cons tables, memo tables and heap; repeating the
   analysis in one process would measure a warmed-up process instead. The
   child returns its result by marshalling it over a pipe and exits with
   [_exit], so buffered output and at_exit handlers of the parent never run
   twice. The parent always reaps the child. *)

let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Run [prog args] to completion with its stdout captured (stderr to the
   given descriptor); returns the stdout lines and the exit status. *)
let capture ?(stderr = Unix.stderr) prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin wr stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  close_in_noerr ic;
  (out, waitpid_retry pid)

let rec last = function [] -> None | [ x ] -> Some x | _ :: tl -> last tl

(* [f] must return plain data (no closures, no custom blocks). *)
let in_child (f : unit -> 'a) : ('a, string) result =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let res : ('a, string) result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr wr in
    (try
       Marshal.to_channel oc res [];
       close_out oc
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let res : ('a, string) result =
      try Marshal.from_channel ic
      with End_of_file | Failure _ -> Error "child exited without a result"
    in
    close_in_noerr ic;
    (match waitpid_retry pid with
    | Unix.WEXITED 0 -> res
    | Unix.WEXITED c -> Error (Printf.sprintf "child exited with code %d" c)
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> Error (Printf.sprintf "child killed by signal %d" s))
