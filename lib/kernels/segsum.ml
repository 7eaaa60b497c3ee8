(* Segsum — segmented sum: one segment per block iteration, each block
   strides its threads over the segment, parks the partials in dynamic
   shared memory, and tree-reduces them.  The canonical shared-memory
   reduction shape (CUB's BlockReduce, cvGPUSpeedup's reduction
   pipelines); the barrier-per-halving structure exercises the fusion
   verifier's barrier analysis harder than any paper kernel except
   Batchnorm.  The tree indexing assumes a power-of-two blockDim, so the
   block size is Fixed. *)

open Cuda
open Gpusim

let source =
  {|
__global__ void segsum(float* out, float* in, int nseg, int seglen) {
  extern __shared__ unsigned char segsum_smem[];
  float* sm = (float*)segsum_smem;
  for (int s = blockIdx.x; s < nseg; s += gridDim.x) {
    float acc = 0.0f;
    for (int i = threadIdx.x; i < seglen; i += blockDim.x) {
      acc = acc + in[s * seglen + i];
    }
    sm[threadIdx.x] = acc;
    __syncthreads();
    for (int off = blockDim.x / 2; off > 0; off = off / 2) {
      if (threadIdx.x < off) {
        sm[threadIdx.x] = sm[threadIdx.x] + sm[threadIdx.x + off];
      }
      __syncthreads();
    }
    if (threadIdx.x == 0) { out[s] = sm[0]; }
    __syncthreads();
  }
}
|}

let block_threads = 256
let seglen = 256
let geometry ~size = 48 * max 1 size

(* Mirror the device's reduction order exactly: per-thread strided
   partials, then the shared-memory halving tree — every add rounded to
   fp32.  The result is bit-exact, no tolerance needed. *)
let host_reference ~input ~nseg : float array =
  Array.init nseg (fun s ->
      let partial = Array.make block_threads 0.0 in
      for t = 0 to block_threads - 1 do
        let acc = ref 0.0 in
        let i = ref t in
        while !i < seglen do
          acc := Value.f32 (!acc +. input.((s * seglen) + !i));
          i := !i + block_threads
        done;
        partial.(t) <- !acc
      done;
      let off = ref (block_threads / 2) in
      while !off > 0 do
        for t = 0 to !off - 1 do
          partial.(t) <- Value.f32 (partial.(t) +. partial.(t + !off))
        done;
        off := !off / 2
      done;
      partial.(0))

let instantiate (mem : Memory.t) ~size : Workload.instance =
  let nseg = geometry ~size in
  let total = nseg * seglen in
  let input_data () =
    Prng.float_array (Prng.create (0x5353 + size)) total ~lo:(-4.0) ~hi:4.0
  in
  let input =
    Memory.alloc mem ~name:"segsum.input" ~elem:Ctype.Float ~count:total
      ~init:(fun d -> Memory.store_floats d (input_data ()))
  in
  let out = Memory.alloc mem ~name:"segsum.out" ~elem:Ctype.Float ~count:nseg in
  {
    Workload.args =
      [ Value.Ptr out; Value.Ptr input; Workload.iv nseg; Workload.iv seglen ];
    grid = Workload.default_grid;
    smem_dynamic = block_threads * 4;
    outputs = [ ("segsum.out", out, nseg) ];
    check =
      (fun mem ->
        let expect = host_reference ~input:(input_data ()) ~nseg in
        Workload.check_floats ~what:"segsum.out" ~expect
          (Memory.read_floats mem out nseg));
  }

let spec : Spec.t =
  {
    Spec.name = "Segsum";
    kind = Spec.Reduction;
    source;
    regs = 20;
    native_block = (block_threads, 1, 1);
    tunability = Hfuse_core.Kernel_info.Fixed;
    default_size = 4;
    instantiate;
  }
