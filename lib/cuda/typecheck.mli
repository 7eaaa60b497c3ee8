(** A lightweight semantic checker: declaration-before-use, known
    intrinsics/device functions with correct arity, assignable lvalues,
    consistent-enough types for size computation and interpretation.
    Not a full C type checker; it is the validation HFuse needs before
    fusing.  Errors carry source locations. *)

exception Error of string * Loc.t

(** Intrinsics the whole pipeline understands (checker and interpreter
    agree on this list). *)
val intrinsics : string list

val is_intrinsic : string -> bool

val check_program : Ast.program -> unit
val check_program_result : Ast.program -> (unit, string * Loc.t) result
