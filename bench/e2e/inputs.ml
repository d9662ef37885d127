(* Seeded inputs of the four workloads. The program under test only ever
   receives what is generated here: MiniC source, IR, edit requests and
   queries. *)

module Synth = Fsam_workloads.Minic_synth
module Suite = Fsam_workloads.Suite
module Ast = Fsam_frontend.Ast

type size = Mid | Tiny  (** [Tiny] is the smoke test's size *)

(* synth_mid: 16 call chains of depth 4, every chain forked as its own
   thread. The chain count is high and the depth low on purpose: each
   chain doubles its calling contexts at a seeded half of its call sites,
   so a deep chain's thread-model and MHP cost varies as 2^k across seeds.
   Sixteen shallow chains average that out (seed-to-seed spread of one
   cold analysis ~6% instead of ~30% for eight chains of depth 8) while
   keeping all sixteen threads concurrent. 60 statements per function
   (~7 KLOC) keep a run of every workload within the time budget of a
   two-core machine. *)
let synth size ~seed =
  match size with
  | Mid ->
    { Synth.large with Synth.modules = 16; chain_depth = 4; stmts_per_fn = 60; threads = 16; seed }
  | Tiny -> { Synth.quick with Synth.seed }

(* cold-mid analyses a panel of programs per run; the geometric mean over
   a panel steadies the metric against the spread between single programs *)
let panel_size = function Mid -> 8 | Tiny -> 2
let panel_seed ~seed k = (seed * 1000) + k

(* The serve workloads keep one program resident, as a developer keeps one
   code base open; the run's seed draws the traffic (which functions are
   edited, which queries are asked), not the program. cold-mid is where
   the program varies. *)
let serve_program size = synth size ~seed:1

let suite_scale size (s : Suite.spec) =
  match size with Mid -> s.Suite.scale | Tiny -> max 2 (s.Suite.scale / 20)

(* The ten paper mirrors, in a seeded order (the programs themselves are
   fixed: they mirror Table 1). *)
let suite ~seed =
  let rng = Random.State.make [| seed; 0x5017e |] in
  List.map (fun s -> (Random.State.bits rng, s)) Suite.all
  |> List.sort compare |> List.map snd

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* -- edits ------------------------------------------------------------------ *)

(* The module of a synth chain function "f<module>_<depth>". *)
let module_of fname =
  match String.split_on_char '_' fname with
  | [ m; d ] when String.length m > 1 && m.[0] = 'f' && int_of_string_opt d <> None ->
    int_of_string_opt (String.sub m 1 (String.length m - 1))
  | _ -> None

(* The chain functions, in seeded order. *)
let chain_fns rng (ast : Ast.program) =
  List.filter_map
    (function Ast.Dfun f when module_of f.Ast.fname <> None -> Some f.Ast.fname | _ -> None)
    ast
  |> Array.of_list |> shuffle rng

(* Shape-preserving edit: retarget the first remaining publish of a local
   into a module global ("g = p") to the module heap handle. Statement
   counts and CFGs are unchanged, so every pre-phase reuse guard can hold. *)
let replace_edit (f : Ast.fundef) =
  let found = ref false in
  let fix = function
    | Ast.Sassign (Ast.Eid g, Ast.Eid p)
      when (not !found) && g <> "" && g.[0] = 'g' && p <> "" && p.[0] = 'p' ->
      found := true;
      Ast.Sassign (Ast.Eid g, Ast.Eid "bh")
    | s -> s
  in
  let body = List.map fix f.Ast.body in
  if !found then Some { f with Ast.body } else None

(* Shape-changing edit: append one publish, so statement gids drift and the
   thread model, MHP, locks and SVFG fall back to cold runs. *)
let append_edit (f : Ast.fundef) =
  let g = Printf.sprintf "g%d_0" (Option.get (module_of f.Ast.fname)) in
  { f with Ast.body = f.Ast.body @ [ Ast.Sassign (Ast.Eid g, Ast.Eid "bh") ] }

(* Edit [i] of a stream: one in four appends, the rest replace (falling
   back to an append once a function has no publish left to retarget). *)
let edit_of ~i (f : Ast.fundef) =
  if i mod 4 = 3 then append_edit f
  else match replace_edit f with Some f' -> f' | None -> append_edit f

let find_fn (ast : Ast.program) name =
  List.find_map (function Ast.Dfun f when f.Ast.fname = name -> Some f | _ -> None) ast
  |> Option.get

let splice (ast : Ast.program) (f : Ast.fundef) =
  List.map
    (function Ast.Dfun g when g.Ast.fname = f.Ast.fname -> Ast.Dfun f | d -> d)
    ast

let fn_code (f : Ast.fundef) = Fsam_frontend.Pretty.to_string [ Ast.Dfun f ]

(* -- queries ---------------------------------------------------------------- *)

type query =
  | Pt_name of string
  | Pt_id of int
  | Alias of int * int
  | Mhp of int * int
  | Races

let query_class = function
  | Pt_name _ -> "points_to_name"
  | Pt_id _ -> "points_to_id"
  | Alias _ -> "alias"
  | Mhp _ -> "mhp"
  | Races -> "races"

(* 60% points-to by name, 15% by id, 15% alias, 5% mhp, 5% races; races
   are redrawn while an edit is in flight (the daemon refuses an uncached
   race report then, and the stream must not provoke refusals). *)
let rec draw_query rng ~names ~n_vars ~n_stmts ~busy =
  let r = Random.State.int rng 100 in
  if r < 60 then Pt_name names.(Random.State.int rng (Array.length names))
  else if r < 75 then Pt_id (Random.State.int rng n_vars)
  else if r < 90 then Alias (Random.State.int rng n_vars, Random.State.int rng n_vars)
  else if r < 95 then Mhp (Random.State.int rng n_stmts, Random.State.int rng n_stmts)
  else if busy then draw_query rng ~names ~n_vars ~n_stmts ~busy
  else Races

(* Base names of the program's variables ("p3" for "p3#17"), deduplicated
   and sorted: the names a client would type. *)
let var_names prog =
  let base name =
    match String.index_opt name '#' with Some k -> String.sub name 0 k | None -> name
  in
  List.init (Fsam_ir.Prog.n_vars prog) (fun v -> base (Fsam_ir.Prog.var_name prog v))
  |> List.sort_uniq compare |> Array.of_list
