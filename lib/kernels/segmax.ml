(* Segmax — segmented max with the same block-per-segment shared-memory
   tree as Segsum, but reducing with fmaxf.  Max is exact in fp32
   regardless of association, so the host reference is a plain fold —
   the pair (Segsum, Segmax) gives the corpus a both-sides-extern-shared
   fusion, which no paper pair exercises. *)

open Cuda
open Gpusim

let source =
  {|
__global__ void segmax(float* out, float* in, float lo,
                       int nseg, int seglen) {
  extern __shared__ unsigned char segmax_smem[];
  float* sm = (float*)segmax_smem;
  for (int s = blockIdx.x; s < nseg; s += gridDim.x) {
    float acc = lo;
    for (int i = threadIdx.x; i < seglen; i += blockDim.x) {
      acc = fmaxf(acc, in[s * seglen + i]);
    }
    sm[threadIdx.x] = acc;
    __syncthreads();
    for (int off = blockDim.x / 2; off > 0; off = off / 2) {
      if (threadIdx.x < off) {
        sm[threadIdx.x] = fmaxf(sm[threadIdx.x], sm[threadIdx.x + off]);
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
let lo = -1e30
let geometry ~size = 48 * max 1 size

let host_reference ~input ~nseg : float array =
  Array.init nseg (fun s ->
      let m = ref (Value.f32 lo) in
      for i = 0 to seglen - 1 do
        let v = input.((s * seglen) + i) in
        if v > !m then m := v
      done;
      !m)

let instantiate (mem : Memory.t) ~size : Workload.instance =
  let nseg = geometry ~size in
  let total = nseg * seglen in
  let input_data () =
    Prng.float_array (Prng.create (0x534D + size)) total ~lo:(-4.0) ~hi:4.0
  in
  let input =
    Memory.alloc mem ~name:"segmax.input" ~elem:Ctype.Float ~count:total
      ~init:(fun d -> Memory.store_floats d (input_data ()))
  in
  let out = Memory.alloc mem ~name:"segmax.out" ~elem:Ctype.Float ~count:nseg in
  {
    Workload.args =
      [
        Value.Ptr out; Value.Ptr input; Workload.fv lo; Workload.iv nseg;
        Workload.iv seglen;
      ];
    grid = Workload.default_grid;
    smem_dynamic = block_threads * 4;
    outputs = [ ("segmax.out", out, nseg) ];
    check =
      (fun mem ->
        let expect = host_reference ~input:(input_data ()) ~nseg in
        Workload.check_floats ~what:"segmax.out" ~expect
          (Memory.read_floats mem out nseg));
  }

let spec : Spec.t =
  {
    Spec.name = "Segmax";
    kind = Spec.Reduction;
    source;
    regs = 20;
    native_block = (block_threads, 1, 1);
    tunability = Hfuse_core.Kernel_info.Fixed;
    default_size = 4;
    instantiate;
  }
