(** Per-thread register estimation.

    The occupancy computation (Fig. 6) needs NRegs(K).  Without nvcc,
    estimate from the AST: parameters and scalar locals hold live
    values, deep expressions need temporaries, 64-bit values cost two
    registers.  Monotone and deliberately simple; the benchmark corpus
    carries per-kernel calibration values instead, and this is the
    fallback for user-supplied kernels. *)

val reg_cost_of_type : Cuda.Ctype.t -> int
val expr_depth : Cuda.Ast.expr -> int
val estimate_fn : Cuda.Ast.fn -> int

(** Calibration value when recorded ([regs > 0]), else the estimate. *)
val regs_of_info : Hfuse_core.Kernel_info.t -> int
