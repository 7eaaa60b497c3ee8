(* Rgb2gray — planar RGB to luminance (the BT.601 weighted sum), the
   colour-conversion stage that opens most image pipelines.  Three
   coalesced loads feeding two FMAs per pixel; bandwidth-bound like
   Resize and MulAdd but with triple the read traffic per store. *)

open Cuda
open Gpusim

let source =
  {|
__global__ void rgb2gray(float* gray, float* r, float* g, float* b,
                         float wr, float wg, float wb, int total) {
  for (int i = blockIdx.x * blockDim.x + threadIdx.x; i < total;
       i += blockDim.x * gridDim.x) {
    gray[i] = r[i] * wr + g[i] * wg + b[i] * wb;
  }
}
|}

let wr = 0.299
let wg = 0.587
let wb = 0.114
let geometry ~size = 3072 * max 1 size

let host_reference ~r ~g ~b : float array =
  let fr = Value.f32 wr and fg = Value.f32 wg and fb = Value.f32 wb in
  Array.init (Array.length r) (fun i ->
      (* mirror the device's fp32 rounding at every step *)
      let tr = Value.f32 (r.(i) *. fr) in
      let tg = Value.f32 (g.(i) *. fg) in
      let tb = Value.f32 (b.(i) *. fb) in
      Value.f32 (Value.f32 (tr +. tg) +. tb))

(* [r], [g] and [b] are consecutive draws of one stream, so each
   buffer's fill replays the whole stream and keeps its own draw. *)
let inputs ~size ~total =
  let rng = Prng.create (0x5247 + size) in
  let r = Prng.float_array rng total ~lo:0.0 ~hi:1.0 in
  let g = Prng.float_array rng total ~lo:0.0 ~hi:1.0 in
  let b = Prng.float_array rng total ~lo:0.0 ~hi:1.0 in
  (r, g, b)

let instantiate (mem : Memory.t) ~size : Workload.instance =
  let total = geometry ~size in
  let input name pick =
    Memory.alloc mem ~name ~elem:Ctype.Float ~count:total ~init:(fun d ->
        Memory.store_floats d (pick (inputs ~size ~total)))
  in
  let r = input "rgb2gray.r" (fun (r, _, _) -> r) in
  let g = input "rgb2gray.g" (fun (_, g, _) -> g) in
  let b = input "rgb2gray.b" (fun (_, _, b) -> b) in
  let gray =
    Memory.alloc mem ~name:"rgb2gray.gray" ~elem:Ctype.Float ~count:total
  in
  {
    Workload.args =
      [
        Value.Ptr gray; Value.Ptr r; Value.Ptr g; Value.Ptr b; Workload.fv wr;
        Workload.fv wg; Workload.fv wb; Workload.iv total;
      ];
    grid = Workload.default_grid;
    smem_dynamic = 0;
    outputs = [ ("rgb2gray.gray", gray, total) ];
    check =
      (fun mem ->
        let r, g, b = inputs ~size ~total in
        let expect = host_reference ~r ~g ~b in
        Workload.check_floats ~what:"rgb2gray.gray" ~expect
          (Memory.read_floats mem gray total));
  }

let spec : Spec.t =
  {
    Spec.name = "Rgb2gray";
    kind = Spec.Image;
    source;
    regs = 18;
    native_block = (256, 1, 1);
    tunability = Hfuse_core.Kernel_info.Tunable { multiple_of = 32 };
    default_size = 8;
    instantiate;
  }
