(** CUDA source emission.  HFuse is source-to-source: the output must be
    compilable CUDA-C.  Precedence-aware (inserts only the parentheses
    the grammar needs); exercised by a parse/print round-trip property
    test, and its bytes are pinned by [test/golden/pretty.md5]: cached
    fused kernels are keyed by what generated them, so a moved byte
    must bump [Hfuse_core.Fuse_common.version]. *)

val expr_to_string : Ast.expr -> string
val stmt_to_string : Ast.stmt -> string
val fn_to_string : Ast.fn -> string
val program_to_string : Ast.program -> string
