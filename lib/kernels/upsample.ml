(* Upsample — 2-D bilinear upsampling, modelled on PyTorch's
   [upsample_bilinear2d_out_frame] (used by BigGAN/UVC-style models).
   Each thread computes one output pixel from four input neighbours with
   fp32 interpolation weights: a mix of memory traffic and floating-point
   arithmetic. *)

open Cuda
open Gpusim

let source =
  {|
__global__ void upsample(float* output, float* input,
                         int channels, int iheight, int iwidth,
                         int oheight, int owidth,
                         float rheight, float rwidth, int total) {
  for (int index = blockIdx.x * blockDim.x + threadIdx.x; index < total;
       index += blockDim.x * gridDim.x) {
    int ow = index % owidth;
    int oh = index / owidth % oheight;
    int nc = index / owidth / oheight;
    float h1r = rheight * oh;
    int h1 = (int)h1r;
    int h1p = (h1 < iheight - 1 ? 1 : 0);
    float h1lambda = h1r - h1;
    float h0lambda = 1.0f - h1lambda;
    float w1r = rwidth * ow;
    int w1 = (int)w1r;
    int w1p = (w1 < iwidth - 1 ? 1 : 0);
    float w1lambda = w1r - w1;
    float w0lambda = 1.0f - w1lambda;
    int base = (nc * iheight + h1) * iwidth + w1;
    float val = h0lambda * (w0lambda * input[base]
                            + w1lambda * input[base + w1p])
              + h1lambda * (w0lambda * input[base + h1p * iwidth]
                            + w1lambda * input[base + h1p * iwidth + w1p]);
    output[index] = val;
  }
}
|}

let geometry ~size =
  let nbatch = 2 and channels = 4 in
  let iwidth = 8 * max 1 size and iheight = 8 in
  let owidth = 2 * iwidth and oheight = 2 * iheight in
  (nbatch, channels, iheight, iwidth, oheight, owidth)

let ratio ~src ~dst =
  if dst <= 1 then 0.0
  else float_of_int (src - 1) /. float_of_int (dst - 1)

let host_reference ~input ~geometry:(nbatch, channels, ih, iw, oh, ow) :
    float array =
  let rh = Value.f32 (ratio ~src:ih ~dst:oh) in
  let rw = Value.f32 (ratio ~src:iw ~dst:ow) in
  let total = nbatch * channels * oh * ow in
  Array.init total (fun index ->
      let w0 = index mod ow in
      let h0 = index / ow mod oh in
      let nc = index / ow / oh in
      let h1r = Value.f32 (rh *. float_of_int h0) in
      let h1 = int_of_float h1r in
      let h1p = if h1 < ih - 1 then 1 else 0 in
      let h1l = Value.f32 (h1r -. float_of_int h1) in
      let h0l = Value.f32 (1.0 -. h1l) in
      let w1r = Value.f32 (rw *. float_of_int w0) in
      let w1 = int_of_float w1r in
      let w1p = if w1 < iw - 1 then 1 else 0 in
      let w1l = Value.f32 (w1r -. float_of_int w1) in
      let w0l = Value.f32 (1.0 -. w1l) in
      let base = ((nc * ih) + h1) * iw + w1 in
      let v =
        (h0l *. ((w0l *. input.(base)) +. (w1l *. input.(base + w1p))))
        +. h1l
           *. ((w0l *. input.(base + (h1p * iw)))
              +. (w1l *. input.(base + (h1p * iw) + w1p)))
      in
      Value.f32 v)

let instantiate (mem : Memory.t) ~size : Workload.instance =
  let ((nbatch, channels, ih, iw, oh, ow) as geo) = geometry ~size in
  let total_in = nbatch * channels * ih * iw in
  let total_out = nbatch * channels * oh * ow in
  let input_data () =
    Prng.float_array (Prng.create (0x0B5A + size)) total_in ~lo:(-1.0) ~hi:1.0
  in
  let input =
    Memory.alloc mem ~name:"upsample.input" ~elem:Ctype.Float ~count:total_in
      ~init:(fun d -> Memory.store_floats d (input_data ()))
  in
  let output =
    Memory.alloc mem ~name:"upsample.output" ~elem:Ctype.Float ~count:total_out
  in
  {
    Workload.args =
      [
        Value.Ptr output; Value.Ptr input; Workload.iv channels;
        Workload.iv ih; Workload.iv iw; Workload.iv oh; Workload.iv ow;
        Workload.fv (ratio ~src:ih ~dst:oh); Workload.fv (ratio ~src:iw ~dst:ow);
        Workload.iv total_out;
      ];
    grid = Workload.default_grid;
    smem_dynamic = 0;
    outputs = [ ("upsample.output", output, total_out) ];
    check =
      (fun mem ->
        let expect = host_reference ~input:(input_data ()) ~geometry:geo in
        Workload.check_floats ~what:"upsample.output" ~expect
          (Memory.read_floats mem output total_out));
  }

let spec : Spec.t =
  {
    Spec.name = "Upsample";
    kind = Spec.Deep_learning;
    source;
    regs = 56;
    native_block = (256, 1, 1);
    tunability = Hfuse_core.Kernel_info.Tunable { multiple_of = 32 };
    default_size = 8;
    instantiate;
  }
