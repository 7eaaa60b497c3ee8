(* Resize — 2x area-interpolated downscale (what cv::resize INTER_AREA
   computes for an exact halving): each output pixel averages its 2x2
   source window.  The first stage of cvGPUSpeedup's resize/mulAdd image
   pipelines.  Four strided loads and one store per thread; like the
   other image kernels it is throughput-bound on the memory system. *)

open Cuda
open Gpusim

let source =
  {|
__global__ void resize(float* out, float* in, float scale,
                       int owidth, int iwidth, int total) {
  for (int index = blockIdx.x * blockDim.x + threadIdx.x; index < total;
       index += blockDim.x * gridDim.x) {
    int ox = index % owidth;
    int oy = index / owidth;
    int base = (oy * 2) * iwidth + (ox * 2);
    float s = in[base] + in[base + 1] + in[base + iwidth]
            + in[base + iwidth + 1];
    out[index] = s * scale;
  }
}
|}

let scale = 0.25

(* Input image iheight x iwidth, output exactly halved; [size] scales
   the width. *)
let geometry ~size =
  let iheight = 16 and iwidth = 32 * max 1 size in
  (iheight, iwidth, iheight / 2, iwidth / 2)

let host_reference ~input ~geometry:(_, iw, oh, ow) : float array =
  let sc = Value.f32 scale in
  Array.init (oh * ow) (fun index ->
      let ox = index mod ow and oy = index / ow in
      let base = (oy * 2 * iw) + (ox * 2) in
      (* mirror the device's left-associated fp32 adds *)
      let s = Value.f32 (input.(base) +. input.(base + 1)) in
      let s = Value.f32 (s +. input.(base + iw)) in
      let s = Value.f32 (s +. input.(base + iw + 1)) in
      Value.f32 (s *. sc))

let instantiate (mem : Memory.t) ~size : Workload.instance =
  let ((ih, iw, oh, ow) as geo) = geometry ~size in
  let total_in = ih * iw and total_out = oh * ow in
  let input_data () =
    Prng.float_array (Prng.create (0x5253 + size)) total_in ~lo:(-4.0) ~hi:4.0
  in
  let input =
    Memory.alloc mem ~name:"resize.input" ~elem:Ctype.Float ~count:total_in
      ~init:(fun d -> Memory.store_floats d (input_data ()))
  in
  let out =
    Memory.alloc mem ~name:"resize.out" ~elem:Ctype.Float ~count:total_out
  in
  {
    Workload.args =
      [
        Value.Ptr out; Value.Ptr input; Workload.fv scale; Workload.iv ow;
        Workload.iv iw; Workload.iv total_out;
      ];
    grid = Workload.default_grid;
    smem_dynamic = 0;
    outputs = [ ("resize.out", out, total_out) ];
    check =
      (fun mem ->
        let expect = host_reference ~input:(input_data ()) ~geometry:geo in
        Workload.check_floats ~what:"resize.out" ~expect
          (Memory.read_floats mem out total_out));
  }

let spec : Spec.t =
  {
    Spec.name = "Resize";
    kind = Spec.Image;
    source;
    regs = 18;
    native_block = (256, 1, 1);
    tunability = Hfuse_core.Kernel_info.Tunable { multiple_of = 32 };
    default_size = 8;
    instantiate;
  }
