(* MulAdd — per-pixel weighted multiply-add of two images,
   [out = a*alpha + b*beta + gamma], the cv::addWeighted / mulAdd stage
   of cvGPUSpeedup's image pipelines.  Pure streaming: two coalesced
   loads, three FMAs, one store per element — the memory-bound regime
   where horizontal fusion pays by overlapping another kernel's compute
   with the stalls. *)

open Cuda
open Gpusim

let source =
  {|
__global__ void muladd(float* out, float* a, float* b,
                       float alpha, float beta, float gamma, int total) {
  for (int i = blockIdx.x * blockDim.x + threadIdx.x; i < total;
       i += blockDim.x * gridDim.x) {
    out[i] = a[i] * alpha + b[i] * beta + gamma;
  }
}
|}

let alpha = 1.5
let beta = 0.25
let gamma = -0.75
let geometry ~size = 3072 * max 1 size

let host_reference ~a ~b : float array =
  let al = Value.f32 alpha and be = Value.f32 beta and ga = Value.f32 gamma in
  Array.init (Array.length a) (fun i ->
      (* mirror the device's fp32 rounding at every step *)
      let ta = Value.f32 (a.(i) *. al) in
      let tb = Value.f32 (b.(i) *. be) in
      Value.f32 (Value.f32 (ta +. tb) +. ga))

(* [a] and [b] are consecutive draws of one stream, so each buffer's
   fill replays the whole stream and keeps its own draw. *)
let inputs ~size ~total =
  let rng = Prng.create (0x4D41 + size) in
  let a = Prng.float_array rng total ~lo:(-4.0) ~hi:4.0 in
  let b = Prng.float_array rng total ~lo:(-4.0) ~hi:4.0 in
  (a, b)

let instantiate (mem : Memory.t) ~size : Workload.instance =
  let total = geometry ~size in
  let input name pick =
    Memory.alloc mem ~name ~elem:Ctype.Float ~count:total ~init:(fun d ->
        Memory.store_floats d (pick (inputs ~size ~total)))
  in
  let a = input "muladd.a" fst in
  let b = input "muladd.b" snd in
  let out =
    Memory.alloc mem ~name:"muladd.out" ~elem:Ctype.Float ~count:total
  in
  {
    Workload.args =
      [
        Value.Ptr out; Value.Ptr a; Value.Ptr b; Workload.fv alpha;
        Workload.fv beta; Workload.fv gamma; Workload.iv total;
      ];
    grid = Workload.default_grid;
    smem_dynamic = 0;
    outputs = [ ("muladd.out", out, total) ];
    check =
      (fun mem ->
        let a, b = inputs ~size ~total in
        let expect = host_reference ~a ~b in
        Workload.check_floats ~what:"muladd.out" ~expect
          (Memory.read_floats mem out total));
  }

let spec : Spec.t =
  {
    Spec.name = "MulAdd";
    kind = Spec.Image;
    source;
    regs = 16;
    native_block = (256, 1, 1);
    tunability = Hfuse_core.Kernel_info.Tunable { multiple_of = 32 };
    default_size = 8;
    instantiate;
  }
