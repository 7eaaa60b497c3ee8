(* GPU architecture models.

   Two devices are modelled after the paper's testbeds: a GeForce GTX
   1080 Ti (Pascal, GP102) and a Tesla V100 (Volta, GV100).  The per-SM
   resource numbers are the real ones (both architectures: 64K registers,
   96K shared memory, 2048 threads).  SM *counts* are scaled down by a
   constant factor so the cycle-level simulation stays tractable; since
   blocks are distributed round-robin and SMs are homogeneous, per-SM
   behaviour — which is where warp scheduling, occupancy and latency
   hiding live — is unaffected, and relative speedups are preserved.
   The scale factor is recorded so reports can state absolute-throughput
   caveats honestly.

   Latency/throughput parameters are drawn from published
   microbenchmarking studies of the two architectures (Jia et al.,
   "Dissecting the NVIDIA Volta GPU architecture via microbenchmarking",
   and the corresponding Pascal numbers): ~6-cycle ALU dependent-issue
   latency (4 on Volta), ~24-30 cycle shared-memory latency, and global
   memory latency in the 400-cycle range (lower on Volta's HBM2). *)

type t = {
  name : string;
  sms : int;  (** simulated SM count (scaled; see [sm_scale]) *)
  sm_scale : int;  (** real SM count = sms * sm_scale *)
  clock_ghz : float;
  warp_size : int;
  schedulers_per_sm : int;  (** warp schedulers, each issues 1 instr/cycle *)
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  regs_per_sm : int;
  smem_per_sm : int;
  max_threads_per_block : int;
  (* latencies (cycles from issue to dependent-use readiness) *)
  alu_latency : int;  (** integer / fp32 pipeline *)
  dalu_latency : int;  (** fp64 pipeline *)
  sfu_latency : int;  (** special function unit: div, sqrt, transcend. *)
  shfl_latency : int;  (** warp shuffle *)
  smem_latency : int;  (** shared-memory load *)
  gmem_latency : int;  (** global-memory load (L2 miss path) *)
  l1_latency : int;
      (** latency of a global load served by the cache model: Pascal
          does not cache global loads in L1 by default, so cached loads
          pay the L2 round trip (~220 cycles); Volta's unified L1 serves
          them in ~28 cycles — a real architectural difference that
          shifts where fusion pays off between the two devices *)
  lmem_latency : int;  (** local-memory (spill) access *)
  (* throughputs *)
  lsu_throughput : int;
      (** cycles the load-store unit is occupied per memory transaction;
          coalesced 32-lane accesses cost 1 transaction *)
  gmem_cyc_per_txn : int;
      (** DRAM-bandwidth cost: cycles of the SM's global-memory pipe per
          32-byte transaction, derived from the device's per-SM share of
          memory bandwidth (484 GB/s over 28 SMs at 1.58 GHz for the
          1080 Ti; 900 GB/s over 80 SMs at 1.53 GHz for the V100) *)
  sfu_throughput : int;  (** cycles SFU is occupied per warp instruction *)
  gmem_max_inflight : int;
      (** max outstanding global transactions per SM (MSHR-like limit) *)
  load_use_distance : int;
      (** instructions the compiler typically schedules between a load
          and its first use (nvcc unrolls and hoists loads); the warp
          keeps issuing until a pending load's use point is reached *)
  load_slots : int;
      (** scoreboard slots: maximum loads a warp keeps outstanding *)
  (* core counts per SM, for issue-port modelling *)
  fp32_units_factor : int;
      (** extra issue cycles for fp32 ops: 1 on Pascal's 128-core SM,
          2 on Volta's 64-core SM partition *)
}

(** GTX 1080 Ti (Pascal GP102): 28 SMs, 1.58 GHz boost, 128 fp32 cores
    per SM, GDDR5X at 484 GB/s.  Simulated with 4 SMs (scale 7). *)
let gtx1080ti =
  {
    name = "1080Ti";
    sms = 4;
    sm_scale = 7;
    clock_ghz = 1.58;
    warp_size = 32;
    schedulers_per_sm = 4;
    max_threads_per_sm = 2048;
    max_blocks_per_sm = 32;
    regs_per_sm = 65536;
    smem_per_sm = 96 * 1024;
    max_threads_per_block = 1024;
    alu_latency = 6;
    dalu_latency = 16;
    sfu_latency = 20;
    shfl_latency = 15;
    smem_latency = 30;
    gmem_latency = 440;
    l1_latency = 220;
    lmem_latency = 140;
    lsu_throughput = 2;
    gmem_cyc_per_txn = 3;
    sfu_throughput = 4;
    gmem_max_inflight = 150;
    load_use_distance = 16;
    load_slots = 6;
    fp32_units_factor = 1;
  }

(** Tesla V100 (Volta GV100): 80 SMs, ~1.53 GHz boost, 64 fp32 cores per
    SM, HBM2 at 900 GB/s (lower latency, much higher bandwidth, but each
    SM owns a smaller slice of bandwidth-per-core than Pascal).
    Simulated with 8 SMs (scale 10). *)
let v100 =
  {
    name = "V100";
    sms = 8;
    sm_scale = 10;
    clock_ghz = 1.53;
    warp_size = 32;
    schedulers_per_sm = 4;
    max_threads_per_sm = 2048;
    max_blocks_per_sm = 32;
    regs_per_sm = 65536;
    smem_per_sm = 96 * 1024;
    max_threads_per_block = 1024;
    alu_latency = 4;
    dalu_latency = 8;
    sfu_latency = 16;
    shfl_latency = 12;
    smem_latency = 24;
    gmem_latency = 375;
    l1_latency = 28;
    lmem_latency = 100;
    lsu_throughput = 2;
    gmem_cyc_per_txn = 4;
    sfu_throughput = 4;
    gmem_max_inflight = 90;
    load_use_distance = 16;
    load_slots = 6;
    fp32_units_factor = 2;
  }

let all = [ gtx1080ti; v100 ]

let by_name name =
  List.find_opt
    (fun a -> String.lowercase_ascii a.name = String.lowercase_ascii name)
    all

let max_warps_per_sm t = t.max_threads_per_sm / t.warp_size

(** SM resource limits in the form the occupancy module consumes. *)
let sm_limits t : Hfuse_core.Occupancy.sm_limits =
  {
    Hfuse_core.Occupancy.regs_per_sm = t.regs_per_sm;
    smem_per_sm = t.smem_per_sm;
    max_threads_per_sm = t.max_threads_per_sm;
    max_blocks_per_sm = t.max_blocks_per_sm;
    reg_alloc_granularity = 8;
    max_regs_per_thread = 255;
    max_threads_per_block = t.max_threads_per_block;
  }

let pp ppf t =
  Fmt.pf ppf "%s (%d SMs simulated x%d, %.2f GHz)" t.name t.sms t.sm_scale
    t.clock_ghz
