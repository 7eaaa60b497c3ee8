(* Hist — [kernelHistogram1D] from PyTorch, the kernel of the paper's
   Fig. 3.  Builds a shared-memory histogram of an input tensor's value
   distribution with [atomicAdd], then flushes the shared counters to the
   global output.  Very high occupancy, almost no memory stalls
   (Fig. 8): the atomics are shared-memory and the input pass is
   perfectly coalesced. *)

open Cuda
open Gpusim

let source =
  {|
__global__ void hist(int* a, float* b, int nbins,
                     float minvalue, float maxvalue, int totalElements,
                     uint64_t bstride) {
  extern __shared__ unsigned char my_smem[];
  int* smem = (int*)my_smem;
  // PART A: initialise shared counters
  for (int i = threadIdx.x; i < nbins; i += blockDim.x) { smem[i] = 0; }
  __syncthreads();
  // PART B: accumulate into shared counters
  for (int linearIndex = blockIdx.x * blockDim.x + threadIdx.x;
       linearIndex < totalElements;
       linearIndex += gridDim.x * blockDim.x) {
    // IndexToOffset-style strided access (64-bit index arithmetic)
    uint64_t bOffset = (uint64_t)linearIndex * bstride;
    float bVal = b[bOffset];
    if (bVal >= minvalue && bVal <= maxvalue) {
      int bin = (int)((bVal - minvalue) / (maxvalue - minvalue) * nbins);
      if (bin == nbins) { bin = bin - 1; }
      atomicAdd(&smem[bin], 1);
    }
  }
  __syncthreads();
  // PART C: flush shared counters to the global histogram
  for (int i = threadIdx.x; i < nbins; i += blockDim.x) {
    atomicAdd(&a[i], smem[i]);
  }
}
|}

let nbins = 64
let minvalue = -2.0
let maxvalue = 2.0

let geometry ~size =
  let total = 2048 * max 1 size in
  total

let host_reference ~input : int32 array =
  let h = Array.make nbins 0l in
  Array.iter
    (fun v ->
      let v = Value.f32 v in
      if v >= Value.f32 minvalue && v <= Value.f32 maxvalue then begin
        (* mirror the device's fp32 rounding at every step *)
        let num = Value.f32 (v -. Value.f32 minvalue) in
        let den = Value.f32 (Value.f32 maxvalue -. Value.f32 minvalue) in
        let q = Value.f32 (num /. den) in
        let bin = int_of_float (Value.f32 (q *. float_of_int nbins)) in
        let bin = if bin = nbins then bin - 1 else bin in
        h.(bin) <- Int32.add h.(bin) 1l
      end)
    input;
  h

let instantiate (mem : Memory.t) ~size : Workload.instance =
  let total = geometry ~size in
  (* activation-like bell-shaped values (sum of three uniforms): most
     mass lands in the central bins, so warp atomics conflict heavily —
     the regime the real tensor-value histogram runs in *)
  let input_data () =
    let rng = Prng.create (0x4157 + size) in
    Array.init total (fun _ ->
        let u () = Prng.next_float_in rng ~lo:(-1.0) ~hi:1.0 in
        let v = (u () +. u () +. u ()) *. 0.85 in
        v)
  in
  let b =
    Memory.alloc mem ~name:"hist.b" ~elem:Ctype.Float ~count:total
      ~init:(fun d -> Memory.store_floats d (input_data ()))
  in
  let a = Memory.alloc mem ~name:"hist.a" ~elem:Ctype.Int ~count:nbins in
  {
    Workload.args =
      [
        Value.Ptr a; Value.Ptr b; Workload.iv nbins; Workload.fv minvalue;
        Workload.fv maxvalue; Workload.iv total; Value.ULong 1L;
      ];
    grid = Workload.default_grid;
    smem_dynamic = nbins * 4;
    outputs = [ ("hist.a", a, nbins) ];
    check =
      (fun mem ->
        let expect = host_reference ~input:(input_data ()) in
        Workload.check_int32s ~what:"hist.a" ~expect
          (Memory.read_int32s mem a nbins));
  }

let spec : Spec.t =
  {
    Spec.name = "Hist";
    kind = Spec.Deep_learning;
    source;
    regs = 24;
    native_block = (128, 1, 1);
    tunability = Hfuse_core.Kernel_info.Tunable { multiple_of = 32 };
    default_size = 12;
    instantiate;
  }
