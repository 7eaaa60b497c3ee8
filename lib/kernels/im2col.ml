(* Im2Col — rearranges image patches into columns for GEMM-based
   convolution, modelled on PyTorch's [im2col_kernel].  One thread per
   output-column element; mostly index arithmetic plus strided global
   reads and writes (high issue utilisation, Fig. 8). *)

open Cuda
open Gpusim

let source =
  {|
__global__ void im2col(float* col, float* img,
                       int channels, int height, int width,
                       int kh, int kw, int oh, int ow, int total) {
  for (int index = blockIdx.x * blockDim.x + threadIdx.x; index < total;
       index += blockDim.x * gridDim.x) {
    int w_out = index % ow;
    int h_index = index / ow;
    int h_out = h_index % oh;
    int channel_in = h_index / oh;
    int channel_out = channel_in * kh * kw;
    // PyTorch's generic kernel walks the patch with 64-bit strided
    // offsets recomputed per tap (IndexToOffset-style index math)
    uint64_t col_base = ((uint64_t)channel_out * oh + (uint64_t)h_out) * ow
                        + (uint64_t)w_out;
    uint64_t img_base = ((uint64_t)channel_in * height + (uint64_t)h_out)
                        * width + (uint64_t)w_out;
    uint64_t step = (uint64_t)oh * ow;
    for (int t = 0; t < kh * kw; ++t) {
      int i = t / kw;
      int j = t % kw;
      int h = h_out + i;
      int w = w_out + j;
      float v = 0.0f;
      if (h < height && w < width) {
        v = img[img_base + (uint64_t)i * width + (uint64_t)j];
      }
      col[col_base + (uint64_t)t * step] = v;
    }
  }
}
|}

let geometry ~size =
  let channels = 4 in
  let width = 8 * max 1 size and height = 16 in
  let kh = 3 and kw = 3 in
  (* stride 1, no padding: output spatial dims shrink by k-1 *)
  let oh = height - kh + 1 and ow = width - kw + 1 in
  (channels, height, width, kh, kw, oh, ow)

let host_reference ~img ~geometry:(channels, height, width, kh, kw, oh, ow) :
    float array =
  let total_col = channels * kh * kw * oh * ow in
  let col = Array.make total_col 0.0 in
  let total = channels * oh * ow in
  for index = 0 to total - 1 do
    let w_out = index mod ow in
    let h_index = index / ow in
    let h_out = h_index mod oh in
    let channel_in = h_index / oh in
    let channel_out = channel_in * kh * kw in
    let col_base = (((channel_out * oh) + h_out) * ow) + w_out in
    let img_base = (((channel_in * height) + h_out) * width) + w_out in
    for i = 0 to kh - 1 do
      for j = 0 to kw - 1 do
        let h = h_out + i and w = w_out + j in
        let v =
          if h < height && w < width then img.(img_base + (i * width) + j)
          else 0.0
        in
        col.(col_base + (((i * kw) + j) * oh * ow)) <- v
      done
    done
  done;
  col

let instantiate (mem : Memory.t) ~size : Workload.instance =
  let ((channels, height, width, kh, kw, oh, ow) as geo) = geometry ~size in
  let total_img = channels * height * width in
  let total_col = channels * kh * kw * oh * ow in
  let total = channels * oh * ow in
  let img_data () =
    Prng.float_array (Prng.create (0x12C0 + size)) total_img ~lo:(-1.0) ~hi:1.0
  in
  let img =
    Memory.alloc mem ~name:"im2col.img" ~elem:Ctype.Float ~count:total_img
      ~init:(fun d -> Memory.store_floats d (img_data ()))
  in
  let col = Memory.alloc mem ~name:"im2col.col" ~elem:Ctype.Float ~count:total_col in
  {
    Workload.args =
      [
        Value.Ptr col; Value.Ptr img; Workload.iv channels;
        Workload.iv height; Workload.iv width; Workload.iv kh;
        Workload.iv kw; Workload.iv oh; Workload.iv ow; Workload.iv total;
      ];
    grid = Workload.default_grid;
    smem_dynamic = 0;
    outputs = [ ("im2col.col", col, total_col) ];
    check =
      (fun mem ->
        let expect = host_reference ~img:(img_data ()) ~geometry:geo in
        Workload.check_floats ~what:"im2col.col" ~expect
          (Memory.read_floats mem col total_col));
  }

let spec : Spec.t =
  {
    Spec.name = "Im2Col";
    kind = Spec.Deep_learning;
    source;
    regs = 28;
    native_block = (256, 1, 1);
    tunability = Hfuse_core.Kernel_info.Tunable { multiple_of = 32 };
    default_size = 12;
    instantiate;
  }
