(** Device-function inlining (paper Section III-C): "inline all function
    calls in the input kernels"; recursion is rejected, as HFuse does.

    Expression functions ([return e;], possibly after pure bindings)
    inline anywhere by substitution — rejecting argument duplication
    with side effects; void statement functions inline at statement
    positions with parameters bound to fresh locals. *)

exception Error of string

(** Inline every device-function call in the kernel, to fixpoint.
    @raise Error on recursion or an uninlinable shape. *)
val inline_fn : Cuda.Ast.program -> Cuda.Ast.fn -> Cuda.Ast.fn

(** The full normalisation pipeline the fusers rely on: shadow
    uniquification, inlining, and declaration lifting. *)
val normalize_kernel : Cuda.Ast.program -> Cuda.Ast.fn -> Cuda.Ast.fn
