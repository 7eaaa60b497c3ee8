(* A kernel plus everything fusion needs to know about launching it.

   The paper treats a kernel as "a list of CUDA statements" with a block
   dimension (Section III); operationally HFuse also needs the grid
   dimension, the dynamic shared-memory size (for [extern __shared__]
   buffers), a register estimate (for the occupancy computation of
   Fig. 6), and whether the block dimension is tunable (deep-learning
   kernels are, crypto kernels are not — Section IV-A). *)

open Cuda

(** Can the kernel run under a different block dimension than its native
    one?  [Tunable { multiple_of }] kernels accept any block dimension
    that is a positive multiple of [multiple_of] (e.g. the normalisation
    kernel of Fig. 2 requires a multiple of the warp size). *)
type tunability = Tunable of { multiple_of : int } | Fixed

type t = {
  fn : Ast.fn;
  prog : Ast.program;  (** translation unit, for device-fn lookup *)
  block : int * int * int;  (** native block dimensions *)
  grid : int;  (** grid dimension (x only; the corpus is 1-D grids) *)
  smem_dynamic : int;  (** dynamic shared memory per block, bytes *)
  regs : int;  (** registers per thread (estimate or calibration) *)
  tunability : tunability;
}

let normalized t = { t with fn = Hfuse_frontend.Inline.normalize_kernel t.prog t.fn }

let threads_per_block t =
  let x, y, z = t.block in
  x * y * z

(** Static shared memory per block: the sum of all sized [__shared__]
    declarations in the kernel body. *)
let smem_static_of_body (body : Ast.stmt list) : int =
  List.fold_left
    (fun acc (d : Ast.decl) ->
      match d.d_storage with
      | Ast.Shared -> acc + Ctype.sizeof d.d_type
      | _ -> acc)
    0
    (Ast_util.collect_decls body)

let smem_static t = smem_static_of_body t.fn.f_body
let smem_total t = smem_static t + t.smem_dynamic

(** Re-express the kernel with a different block dimension.  For
    [Tunable] kernels this changes only the launch geometry (the kernel
    source reads [blockDim] at runtime); the total thread count
    (grid * block) is preserved by scaling the grid so the same work is
    done, except that kernels whose loops are grid-stride keep their grid
    fixed — the corpus kernels all self-limit by input size, so we keep
    the grid unchanged and only swap the block dimension.  Raises
    [Invalid_argument] for [Fixed] kernels asked to change size. *)
let with_block_dim t (bx : int) : t =
  let native = threads_per_block t in
  match t.tunability with
  | Fixed ->
      if bx <> native then
        invalid_arg
          (Fmt.str "%s: block dimension is fixed at %d (asked for %d)"
             t.fn.f_name native bx)
      else t
  | Tunable { multiple_of } ->
      if bx <= 0 || bx mod multiple_of <> 0 then
        invalid_arg
          (Fmt.str "%s: block dimension %d is not a positive multiple of %d"
             t.fn.f_name bx multiple_of)
      else begin
        (* preserve the 2-D shape ratio when the native block is 2-D:
           batchnorm-style kernels keep blockDim.y and scale x *)
        let _, ny, nz = t.block in
        if ny * nz > 1 then begin
          if bx mod (ny * nz) <> 0 then
            invalid_arg
              (Fmt.str "%s: block dimension %d incompatible with 2-D shape"
                 t.fn.f_name bx);
          { t with block = (bx / (ny * nz), ny, nz) }
        end
        else { t with block = (bx, 1, 1) }
      end

let pp ppf t =
  let x, y, z = t.block in
  Fmt.pf ppf "%s<<<%d, (%d,%d,%d)>>> regs=%d smem=%d+%d" t.fn.f_name t.grid x
    y z t.regs (smem_static t) t.smem_dynamic
