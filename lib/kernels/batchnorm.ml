(* Batchnorm — [batch_norm_collect_statistics] from PyTorch, the kernel
   of the paper's Fig. 2 (used by ResNet).  Computes per-plane mean and
   (biased) variance of an (N, C, W) tensor with Welford accumulation,
   intra-warp shuffle reduction, a shared-memory stage, and a final
   first-warp reduction — three partial barriers once fused.

   The block is 2-D: threadIdx.y walks the batch dimension, threadIdx.x
   the spatial one, exactly as the original. *)

open Cuda
open Gpusim

let source =
  {|
#define WARP_SIZE 32
__global__ void batchnorm(float* input, int N, int C, int W,
                          uint64_t stride_n, uint64_t stride_c,
                          uint64_t stride_w,
                          float* save_mean, float* save_var) {
  __shared__ int shared_n[WARP_SIZE];
  __shared__ float shared_avg_var[2 * WARP_SIZE];
  int plane = blockIdx.x;
  int tid = threadIdx.x + threadIdx.y * blockDim.x;
  float avg = 0.0f;
  float var_n = 0.0f;
  int n = 0;
  // PART A: per-thread Welford over the plane, then intra-warp merge
  for (int batch = threadIdx.y; batch < N; batch += blockDim.y) {
    for (int x = threadIdx.x; x < W; x += blockDim.x) {
      // PyTorch-style strided accessor: 64-bit index arithmetic
      float v = input[(uint64_t)batch * stride_n
                      + (uint64_t)plane * stride_c
                      + (uint64_t)x * stride_w];
      float d1 = v - avg;
      n++;
      avg += d1 / n;
      var_n += d1 * (v - avg);
    }
  }
  for (int i = 0; i < getMSB(WARP_SIZE); ++i) {
    float o_avg = WARP_SHFL_XOR(avg, 1 << i, WARP_SIZE);
    int o_n = WARP_SHFL_XOR(n, 1 << i, WARP_SIZE);
    float factor = 1.0f / fmaxf(1.0f, n + o_n);
    var_n += WARP_SHFL_XOR(var_n, 1 << i, WARP_SIZE)
             + (avg - o_avg) * (avg - o_avg) * n * o_n * factor;
    avg = (n * avg + o_n * o_avg) * factor;
    n += o_n;
  }
  __syncthreads();
  // PART B: warp leaders publish partial results
  if (tid % WARP_SIZE == 0) {
    shared_n[tid / WARP_SIZE] = n;
    shared_avg_var[tid / WARP_SIZE * 2] = avg;
    shared_avg_var[tid / WARP_SIZE * 2 + 1] = var_n;
  }
  __syncthreads();
  // PART C: first warp reduces the partials
  if (tid < WARP_SIZE) {
    n = (tid < blockDim.x * blockDim.y / WARP_SIZE ? shared_n[tid] : 0);
    avg = (tid < blockDim.x * blockDim.y / WARP_SIZE
               ? shared_avg_var[2 * tid] : 0.0f);
    var_n = (tid < blockDim.x * blockDim.y / WARP_SIZE
                 ? shared_avg_var[2 * tid + 1] : 0.0f);
    for (int i = 0; i < getMSB(WARP_SIZE); ++i) {
      float o_avg = WARP_SHFL_XOR(avg, 1 << i, WARP_SIZE);
      int o_n = WARP_SHFL_XOR(n, 1 << i, WARP_SIZE);
      float factor = 1.0f / fmaxf(1.0f, n + o_n);
      var_n += WARP_SHFL_XOR(var_n, 1 << i, WARP_SIZE)
               + (avg - o_avg) * (avg - o_avg) * n * o_n * factor;
      avg = (n * avg + o_n * o_avg) * factor;
      n += o_n;
    }
    if (tid == 0) {
      save_mean[plane] = avg;
      save_var[plane] = var_n / fmaxf(1.0f, n);
    }
  }
}
|}

(* [size] scales the spatial width W; the batch count is fixed.  The
   plane count equals the grid (one block per plane). *)
let geometry ~size =
  (* batch of 16 so every threadIdx.y row of the (x, 16) block is busy *)
  let n = 16 and c = Workload.default_grid in
  let w = 32 * max 1 size in
  (n, c, w)

let host_reference ~input ~geometry:(n, c, w) : float array * float array =
  let mean = Array.make c 0.0 and var = Array.make c 0.0 in
  for plane = 0 to c - 1 do
    let sum = ref 0.0 and count = n * w in
    for batch = 0 to n - 1 do
      for x = 0 to w - 1 do
        sum := !sum +. input.((((batch * c) + plane) * w) + x)
      done
    done;
    let m = !sum /. float_of_int count in
    let sq = ref 0.0 in
    for batch = 0 to n - 1 do
      for x = 0 to w - 1 do
        let d = input.((((batch * c) + plane) * w) + x) -. m in
        sq := !sq +. (d *. d)
      done
    done;
    mean.(plane) <- m;
    var.(plane) <- !sq /. float_of_int count
  done;
  (mean, var)

let instantiate (mem : Memory.t) ~size : Workload.instance =
  let ((n, c, w) as geo) = geometry ~size in
  let total = n * c * w in
  let input_data () =
    Prng.float_array (Prng.create (0xBA7C + size)) total ~lo:(-2.0) ~hi:2.0
  in
  let input =
    Memory.alloc mem ~name:"batchnorm.input" ~elem:Ctype.Float ~count:total
      ~init:(fun d -> Memory.store_floats d (input_data ()))
  in
  let save_mean = Memory.alloc mem ~name:"batchnorm.mean" ~elem:Ctype.Float ~count:c in
  let save_var = Memory.alloc mem ~name:"batchnorm.var" ~elem:Ctype.Float ~count:c in
  {
    Workload.args =
      [
        Value.Ptr input; Workload.iv n; Workload.iv c; Workload.iv w;
        Value.ULong (Int64.of_int (c * w)); Value.ULong (Int64.of_int w);
        Value.ULong 1L; Value.Ptr save_mean; Value.Ptr save_var;
      ];
    grid = c;
    smem_dynamic = 0;
    outputs =
      [ ("batchnorm.mean", save_mean, c); ("batchnorm.var", save_var, c) ];
    check =
      (fun mem ->
        let mean_e, var_e = host_reference ~input:(input_data ()) ~geometry:geo in
        match
          Workload.check_floats ~what:"batchnorm.mean" ~expect:mean_e
            (Memory.read_floats mem save_mean c)
        with
        | Error _ as e -> e
        | Ok () ->
            Workload.check_floats ~what:"batchnorm.var" ~expect:var_e
              (Memory.read_floats mem save_var c));
  }

let spec : Spec.t =
  {
    Spec.name = "Batchnorm";
    kind = Spec.Deep_learning;
    source;
    regs = 32;
    (* 2-D native block, as in the paper's example: 32 x 16 = 512 *)
    native_block = (32, 16, 1);
    tunability = Hfuse_core.Kernel_info.Tunable { multiple_of = 32 };
    default_size = 12;
    instantiate;
  }
