(** Lowering of MiniC to the partial-SSA IR — the role LLVM + [mem2reg]
    plays for the paper (§2.1, §4.1).

    Globals, structs, arrays, locks and thread handles become abstract
    memory objects; locals whose address is never taken become top-level
    variables (the [mem2reg] promotion); complex expressions decompose into
    the basic statement forms with fresh temporaries (paper Figure 3);
    global initializers run at the top of [main]; finally top-level
    variables are put into SSA with [Fsam_ir.Ssa.transform] and the
    structural nops of the lowering are removed with
    [Fsam_ir.Simplify.compact]. *)

exception Error of string

val lower : Ast.program -> Fsam_ir.Prog.t

val lower_raw : Ast.program -> Fsam_ir.Prog.t
(** The validated IR before SSA: what [lower] hands to
    [Fsam_ir.Ssa.transform]. *)

val compile_string : string -> Fsam_ir.Prog.t
(** Parse + lower + SSA + validate. *)
