(** Machinery shared by horizontal and vertical fusion: parameter
    merging, local/label renaming against a common pool, dynamic
    shared-memory layout, and thread-geometry prologues.  Both fusers
    consume kernels normalised by
    {!Hfuse_frontend.Inline.normalize_kernel}. *)

(** Version of what fusion generates from the same inputs.  The
    profiler keys a fused kernel by this constant, the fusion kind and
    the input kernels' sources instead of by its printed text, so any
    change to the front end, the fusers or the printer that moves a
    fused kernel's bytes must bump it.  test/golden/pretty.md5 pins
    those bytes at the sizes it prints (every fleet partition at size
    1; the paper pairs' partitions and vertical baselines at their
    representative sizes), and the profiler suite pins this constant
    beside that golden's digest, so a change that moves them fails
    until it is bumped; bytes at other sizes are not guarded. *)
val version : string

exception Fusion_error of string

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** One input kernel, prepared for splicing into a fused kernel. *)
type prepared = {
  info : Kernel_info.t;
  params : Cuda.Ast.param list;  (** renamed fused-kernel parameters *)
  param_map : (string * string) list;  (** (original, fused) names *)
  decls : Cuda.Ast.decl list;  (** renamed lifted local declarations *)
  body : Cuda.Ast.stmt list;  (** renamed non-declaration statements *)
  extern_shared : (string * Cuda.Ctype.t) list;
      (** renamed extern __shared__ arrays with element types *)
}

(** Rename one input kernel's parameters, locals and labels to be fresh
    w.r.t. the (accumulating) pool, and extract its extern shared
    arrays. *)
val prepare : Hfuse_frontend.Rename.pool -> Kernel_info.t -> prepared

(** Name of the unified dynamic shared-memory buffer in fused kernels. *)
val dyn_smem_name : string

(** Declarations binding a prepared kernel's extern-shared arrays as
    typed pointers at [offset] bytes into the unified buffer. *)
val bind_extern_shared : prepared -> offset:int -> Cuda.Ast.stmt list

val align_up : int -> int -> int

(** Prologue statements and builtin mapping that re-derive one input
    kernel's (threadIdx, blockDim) from the fused linear id (minus
    [base]), unflattened to the input's block shape — Fig. 4's
    prologue. *)
val geometry_prologue :
  Hfuse_frontend.Rename.pool ->
  tag:string ->
  base:Cuda.Ast.expr option ->
  block:int * int * int ->
  string ->
  Cuda.Ast.stmt list * Hfuse_frontend.Builtins.mapping

(** The fused linear thread id (Fig. 4 line 3), valid under any launch
    block shape. *)
val global_tid_init : Cuda.Ast.expr

(** Register estimate for a fused kernel: max over the two code paths
    (each thread runs one) plus the prologue's live values. *)
val fused_regs : int -> int -> int

(** The prologue-defined variables a geometry mapping substitutes for
    [threadIdx.*] — thread-dependent seeds for the verifier's taint
    analysis. *)
val mapping_tid_vars : Hfuse_frontend.Builtins.mapping -> string list

(** Assemble the fusion-safety verifier's view of one prepared input
    kernel: its share of the block ([count] threads), its (re)assigned
    barrier, its dynamic shared region at [dyn_offset] bytes into the
    unified buffer, its static [__shared__] declarations, and the
    thread-dependent seed variables [tainted]. *)
val verifier_side :
  ?bar:int * int ->
  label:string ->
  count:int ->
  dyn_offset:int ->
  tainted:string list ->
  prepared ->
  Cuda.Ast.stmt list ->
  Hfuse_analysis.Verifier.side
