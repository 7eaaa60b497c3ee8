(* Blur3 — 3x3 box blur with clamped borders, the smoothing stage of the
   classic image-processing pipelines (cvGPUSpeedup benchmarks a batched
   variant).  Nine clamped window loads pipeline ahead of a chain of
   adds — heavier per-thread address arithmetic than Resize/MulAdd, so
   it holds more registers live. *)

open Cuda
open Gpusim

let source =
  {|
__global__ void blur3(float* out, float* in, float scale,
                      int height, int width, int total) {
  for (int index = blockIdx.x * blockDim.x + threadIdx.x; index < total;
       index += blockDim.x * gridDim.x) {
    int x = index % width;
    int y = index / width;
    int x0 = max(x - 1, 0);
    int x2 = min(x + 1, width - 1);
    int y0 = max(y - 1, 0);
    int y2 = min(y + 1, height - 1);
    float s = in[y0 * width + x0] + in[y0 * width + x] + in[y0 * width + x2]
            + in[y * width + x0] + in[y * width + x] + in[y * width + x2]
            + in[y2 * width + x0] + in[y2 * width + x] + in[y2 * width + x2];
    out[index] = s * scale;
  }
}
|}

let scale = 1.0 /. 9.0

let geometry ~size =
  let height = 16 and width = 16 * max 1 size in
  (height, width)

let host_reference ~input ~geometry:(h, w) : float array =
  let sc = Value.f32 scale in
  Array.init (h * w) (fun index ->
      let x = index mod w and y = index / w in
      let x0 = max (x - 1) 0 and x2 = min (x + 1) (w - 1) in
      let y0 = max (y - 1) 0 and y2 = min (y + 1) (h - 1) in
      (* mirror the device's left-associated fp32 adds *)
      let s = ref input.((y0 * w) + x0) in
      List.iter
        (fun v -> s := Value.f32 (!s +. v))
        [
          input.((y0 * w) + x); input.((y0 * w) + x2); input.((y * w) + x0);
          input.((y * w) + x); input.((y * w) + x2); input.((y2 * w) + x0);
          input.((y2 * w) + x); input.((y2 * w) + x2);
        ];
      Value.f32 (!s *. sc))

let instantiate (mem : Memory.t) ~size : Workload.instance =
  let ((h, w) as geo) = geometry ~size in
  let total = h * w in
  let input_data () =
    Prng.float_array (Prng.create (0x424C + size)) total ~lo:(-4.0) ~hi:4.0
  in
  let input =
    Memory.alloc mem ~name:"blur3.input" ~elem:Ctype.Float ~count:total
      ~init:(fun d -> Memory.store_floats d (input_data ()))
  in
  let out = Memory.alloc mem ~name:"blur3.out" ~elem:Ctype.Float ~count:total in
  {
    Workload.args =
      [
        Value.Ptr out; Value.Ptr input; Workload.fv scale; Workload.iv h;
        Workload.iv w; Workload.iv total;
      ];
    grid = Workload.default_grid;
    smem_dynamic = 0;
    outputs = [ ("blur3.out", out, total) ];
    check =
      (fun mem ->
        let expect = host_reference ~input:(input_data ()) ~geometry:geo in
        Workload.check_floats ~what:"blur3.out" ~expect
          (Memory.read_floats mem out total));
  }

let spec : Spec.t =
  {
    Spec.name = "Blur3";
    kind = Spec.Image;
    source;
    regs = 24;
    native_block = (256, 1, 1);
    tunability = Hfuse_core.Kernel_info.Tunable { multiple_of = 32 };
    default_size = 8;
    instantiate;
  }
