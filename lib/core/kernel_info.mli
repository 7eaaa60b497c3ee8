(** A kernel plus everything fusion needs to know about launching it.

    The paper treats a kernel as "a list of CUDA statements" with a
    block dimension (Section III); operationally HFuse also needs the
    grid dimension, the dynamic shared-memory size, a register estimate
    (for the occupancy computation of Fig. 6), and whether the block
    dimension is tunable — deep-learning kernels are, crypto kernels are
    not (Section IV-A). *)

(** Can the kernel run under a different block dimension than its
    native one?  [Tunable { multiple_of }] kernels accept any positive
    multiple of [multiple_of] (e.g. the normalisation kernel of Fig. 2
    requires a warp-size multiple). *)
type tunability = Tunable of { multiple_of : int } | Fixed

type t = {
  fn : Cuda.Ast.fn;  (** the kernel *)
  prog : Cuda.Ast.program;  (** its translation unit (device functions) *)
  block : int * int * int;  (** configured block dimensions *)
  grid : int;  (** grid dimension (the corpus uses 1-D grids) *)
  smem_dynamic : int;  (** dynamic ([extern __shared__]) bytes per block *)
  regs : int;  (** registers per thread (calibration or estimate) *)
  tunability : tunability;
}

(** The kernel with its body normalised
    ({!Hfuse_frontend.Inline.normalize_kernel}): the form
    {!Gpusim.Launch} runs. *)
val normalized : t -> t

(** Total threads per block. *)
val threads_per_block : t -> int

(** Static shared memory per block of a kernel body: the sum of all
    sized [__shared__] declarations. *)
val smem_static_of_body : Cuda.Ast.stmt list -> int

(** Static plus dynamic shared memory per block. *)
val smem_total : t -> int

(** Re-express the kernel at block dimension [bx].  [Tunable] kernels
    keep their 2-D shape ratio (a (32,16) kernel asked for 896 becomes
    (56,16)); the grid is unchanged (the corpus kernels self-limit by
    input size).

    @raise Invalid_argument for a [Fixed] kernel asked to change size,
    or when [bx] violates the tunability constraint. *)
val with_block_dim : t -> int -> t

val pp : t Fmt.t
