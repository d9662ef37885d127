(** A whole program: functions, top-level variable table, abstract object
    table, fork-site table. The object table is growable because
    field-sensitive analysis materialises field objects on demand. *)

type t

val make :
  funcs:Func.t array ->
  var_names:string array ->
  objs:Memobj.t list ->
  fork_sites:(int * int) array ->
  thread_objs:int array ->
  main:int ->
  t

val n_funcs : t -> int
val func : t -> int -> Func.t
val find_func : t -> string -> int option
val main_fid : t -> int
val iter_funcs : t -> (Func.t -> unit) -> unit

val n_vars : t -> int
val var_name : t -> Stmt.var -> string

val n_objs : t -> int
(** Current count — grows as field objects are materialised. *)

val obj : t -> Stmt.obj -> Memobj.t
val obj_name : t -> Stmt.obj -> string
val iter_objs : t -> (Memobj.t -> unit) -> unit

val lookup : t -> [ `Var | `Obj ] -> string -> int option
(** Resolve a numeric id or a source-level name. A variable name with SSA
    versions resolves to the final one (["c"] finds ["c#18"], not the dead
    pre-SSA ["c"]); any other name to the first variable or object so
    named. [None] for an unknown name or an out-of-range id. *)

val field_obj : t -> base:Stmt.obj -> field:string -> Stmt.obj
(** The field object for [(base, field)], created on first request. Fields of
    field objects are flattened onto the root base. Array objects are
    monolithic: their "fields" are the object itself. *)

val find_field_obj : t -> base:Stmt.obj -> field:string -> Stmt.obj option
(** Like {!field_obj} but read-only: [None] if the field object has not been
    materialised, never creates one. Used by the incremental engine to map
    object ids between program versions without perturbing the id assignment
    order a cold run would produce. *)

val fields_of : t -> Stmt.obj -> Stmt.obj list
(** All field objects materialised so far for the given base (excluding the
    base itself), sorted by object id so output built from this list is
    deterministic. *)

(* Fork sites ----------------------------------------------------------- *)

val n_forks : t -> int
val fork_site : t -> int -> int * int
(** [fork_site p k] = (fid, stmt index) of fork id [k]. *)

val thread_obj_of_fork : t -> int -> Stmt.obj
val fork_of_thread_obj : t -> Stmt.obj -> int option

(* Global statement numbering ------------------------------------------- *)

val n_stmts : t -> int
val gid : t -> fid:int -> idx:int -> int
val of_gid : t -> int -> int * int
val stmt_at : t -> int -> Stmt.t
val func_of_gid : t -> int -> int
val iter_stmts : t -> (int -> int -> Stmt.t -> unit) -> unit
(** [iter_stmts p f] calls [f gid fid stmt] for every statement. *)

val pp_stmt : t -> Format.formatter -> Stmt.t -> unit
val pp : Format.formatter -> t -> unit
