(* Maxpool — 2-D max pooling over an input feature map, modelled on
   PyTorch's [max_pool_forward_nchw] kernel as instantiated for ResNet's
   3x3, stride-2 pooling.  The window is fully unrolled (the framework's
   templated kernels specialise and unroll constant window shapes), so
   the nine input loads pipeline ahead of the max chain — making the
   kernel throughput-bound on the memory system, which is why the paper
   measures only ~8% issue-slot utilisation and ~95% memory stalls for
   it (Fig. 8). *)

open Cuda
open Gpusim

let source =
  {|
__global__ void maxpool(float* output, float* input,
                        int channels, int iheight, int iwidth,
                        int oheight, int owidth, int total) {
  for (int index = blockIdx.x * blockDim.x + threadIdx.x; index < total;
       index += blockDim.x * gridDim.x) {
    int ow = index % owidth;
    int oh = index / owidth % oheight;
    int c = index / owidth / oheight % channels;
    int n = index / owidth / oheight / channels;
    int hstart = oh * 2;
    int wstart = ow * 2;
    // clamped 3x3 window: duplicates of edge cells do not change a max
    int h1 = min(hstart + 1, iheight - 1);
    int h2 = min(hstart + 2, iheight - 1);
    int w1 = min(wstart + 1, iwidth - 1);
    int w2 = min(wstart + 2, iwidth - 1);
    int base = (n * channels + c) * iheight * iwidth;
    float v0 = input[base + hstart * iwidth + wstart];
    float v1 = input[base + hstart * iwidth + w1];
    float v2 = input[base + hstart * iwidth + w2];
    float v3 = input[base + h1 * iwidth + wstart];
    float v4 = input[base + h1 * iwidth + w1];
    float v5 = input[base + h1 * iwidth + w2];
    float v6 = input[base + h2 * iwidth + wstart];
    float v7 = input[base + h2 * iwidth + w1];
    float v8 = input[base + h2 * iwidth + w2];
    float m = fmaxf(fmaxf(fmaxf(v0, v1), fmaxf(v2, v3)),
                    fmaxf(fmaxf(v4, v5), fmaxf(v6, fmaxf(v7, v8))));
    output[index] = m;
  }
}
|}

(* Workload geometry: batch x channels feature maps of iheight x iwidth;
   [size] scales the spatial extent.  3x3 window, stride 2. *)
let geometry ~size =
  let nbatch = 2 and channels = 4 in
  let iwidth = 16 * max 1 size and iheight = 16 in
  let kh = 3 and kw = 3 and sh = 2 and sw = 2 in
  let oheight = (iheight - kh) / sh + 1 in
  let owidth = (iwidth - kw) / sw + 1 in
  (nbatch, channels, iheight, iwidth, oheight, owidth, kh, kw, sh, sw)

let host_reference ~input
    ~geometry:(nbatch, channels, ih, iw, oh, ow, kh, kw, sh, sw) :
    float array =
  let total = nbatch * channels * oh * ow in
  Array.init total (fun index ->
      let w0 = index mod ow in
      let h0 = index / ow mod oh in
      let c = index / ow / oh mod channels in
      let n = index / ow / oh / channels in
      let hstart = h0 * sh and wstart = w0 * sw in
      let hend = min (hstart + kh) ih and wend = min (wstart + kw) iw in
      let maxval = ref neg_infinity in
      for h = hstart to hend - 1 do
        for w = wstart to wend - 1 do
          let v = input.((((n * channels) + c) * ih + h) * iw + w) in
          if v > !maxval then maxval := v
        done
      done;
      Value.f32 !maxval)

let instantiate (mem : Memory.t) ~size : Workload.instance =
  let ((nbatch, channels, ih, iw, oh, ow, _, _, _, _) as geo) =
    geometry ~size
  in
  let total_in = nbatch * channels * ih * iw in
  let total_out = nbatch * channels * oh * ow in
  let input_data () =
    Prng.float_array (Prng.create (0x6D61 + size)) total_in ~lo:(-4.0) ~hi:4.0
  in
  let input =
    Memory.alloc mem ~name:"maxpool.input" ~elem:Ctype.Float ~count:total_in
      ~init:(fun d -> Memory.store_floats d (input_data ()))
  in
  let output =
    Memory.alloc mem ~name:"maxpool.output" ~elem:Ctype.Float ~count:total_out
  in
  {
    Workload.args =
      [
        Value.Ptr output; Value.Ptr input; Workload.iv channels;
        Workload.iv ih; Workload.iv iw; Workload.iv oh; Workload.iv ow;
        Workload.iv total_out;
      ];
    grid = Workload.default_grid;
    smem_dynamic = 0;
    outputs = [ ("maxpool.output", output, total_out) ];
    check =
      (fun mem ->
        let expect = host_reference ~input:(input_data ()) ~geometry:geo in
        Workload.check_floats ~what:"maxpool.output" ~expect
          (Memory.read_floats mem output total_out));
  }

let spec : Spec.t =
  {
    Spec.name = "Maxpool";
    kind = Spec.Deep_learning;
    source;
    regs = 22;
    native_block = (256, 1, 1);
    tunability = Hfuse_core.Kernel_info.Tunable { multiple_of = 32 };
    default_size = 16;
    instantiate;
  }
