(** Horizontal fusion — the Generate() algorithm of Fig. 5, extended to
    the 2-D thread geometry of the motivating example (Fig. 4) and to
    kernels with different grid dimensions.

    The fused kernel launches with a block of [d1 + d2] threads; threads
    [\[0, d1)] execute the first kernel's statements, [\[d1, d1+d2)] the
    second's.  A prologue re-derives each input kernel's
    [threadIdx]/[blockDim] from the fused linear thread id; every
    [__syncthreads()] becomes the partial barrier [bar.sync id_i, d_i];
    each body is guarded by [if (...) goto end_i]. *)

type t = {
  fn : Cuda.Ast.fn;  (** the fused kernel *)
  prog : Cuda.Ast.program;  (** translation unit containing [fn] *)
  d1 : int;  (** threads assigned to the first kernel *)
  d2 : int;  (** threads assigned to the second kernel *)
  grid : int;  (** fused grid dimension: max of the inputs' *)
  smem_dynamic : int;  (** unified dynamic shared memory, bytes *)
  regs : int;  (** register estimate (before any register bound) *)
  param_map1 : (string * string) list;
      (** kernel 1's (original, fused) parameter names, in order — the
          fused parameter list is kernel 1's then kernel 2's, so native
          argument lists concatenate directly *)
  param_map2 : (string * string) list;
  bar1 : int;  (** hardware barrier id rewriting kernel 1's syncs *)
  bar2 : int;
  src1 : Kernel_info.t;  (** the inputs, as configured for this fusion *)
  src2 : Kernel_info.t;
  sides : Hfuse_analysis.Verifier.side list;
      (** the fusion-safety verifier's view of the two fused sides *)
}

val threads_per_block : t -> int

(** The fused kernel as a launchable {!Kernel_info.t}. *)
val info : t -> Kernel_info.t

(** [generate k1 k2] horizontally fuses two kernels at their configured
    block dimensions.  Inputs are normalised internally (device calls
    inlined, declarations lifted, locals freshly renamed).  Unless
    [~check:false], the result is run through the static fusion-safety
    verifier and rejected when it finds an error.

    [smem_align] (default 16, a power of two) is the alignment of the
    second kernel's slice of the unified dynamic shared-memory buffer —
    the repair engine shrinks it when the inter-kernel padding pushes
    the fusion over the shared-memory budget.

    [normalized] (default: [fun () -> normalize k1 k2]) supplies the
    normalised bodies.  It is called after the geometry checks pass and
    before anything else can fail, so a search that memoises it across
    its partitions normalises once and raises the same exception, in
    the same order, as one that normalises per partition.

    @raise Fuse_common.Fusion_error when a block dimension is not a
    warp-size multiple, the fused block exceeds the device's block-size
    cap ([limits.max_threads_per_block]), barrier ids are exhausted, or
    a body cannot be normalised.
    @raise Hfuse_analysis.Diag.Unsafe_fusion when [check] (the default)
    and the verifier reports an error-severity diagnostic. *)
val generate :
  ?check:bool ->
  ?limits:Occupancy.sm_limits ->
  ?smem_align:int ->
  ?normalized:(unit -> Cuda.Ast.fn * Cuda.Ast.fn) ->
  Kernel_info.t ->
  Kernel_info.t ->
  t

(** [normalize k1 k2] is the two inputs' normalised bodies, as
    [generate] computes them.  They depend only on each kernel's
    function and translation unit, not on its block dimension, so every
    partition of a pair fuses the same bodies. *)
val normalize : Kernel_info.t -> Kernel_info.t -> Cuda.Ast.fn * Cuda.Ast.fn

(** Run the fusion-safety verifier on an already-generated fusion
    (never raises; returns all diagnostics including warnings). *)
val verify : ?limits:Occupancy.sm_limits -> t -> Hfuse_analysis.Diag.t list

(** Emit the fused kernel as CUDA source text. *)
val to_source : t -> string
