(** GPU architecture models for the two testbeds of the paper: a GeForce
    GTX 1080 Ti (Pascal) and a Tesla V100 (Volta).

    Per-SM resources are the real values (64K registers, 96K shared
    memory, 2048 threads).  SM {e counts} are scaled down by [sm_scale]
    to keep cycle-level simulation tractable; blocks distribute
    round-robin over homogeneous SMs, so per-SM behaviour — warp
    scheduling, occupancy, latency hiding — is unaffected and relative
    speedups are preserved.  Latency/throughput values follow published
    microbenchmarking of the two architectures. *)

type t = {
  name : string;
  sms : int;  (** simulated SM count *)
  sm_scale : int;  (** real SMs = sms * sm_scale *)
  clock_ghz : float;
  warp_size : int;
  schedulers_per_sm : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  regs_per_sm : int;
  smem_per_sm : int;
  max_threads_per_block : int;
  alu_latency : int;
  dalu_latency : int;
  sfu_latency : int;
  shfl_latency : int;
  smem_latency : int;
  gmem_latency : int;
  l1_latency : int;
      (** cached-global-load latency: the L2 round trip on Pascal (whose
          L1 does not cache global loads by default), Volta's fast
          unified L1 on the V100 *)
  lmem_latency : int;
  lsu_throughput : int;
  gmem_cyc_per_txn : int;
      (** DRAM cost per 32-byte transaction: the SM's bandwidth share *)
  sfu_throughput : int;
  gmem_max_inflight : int;  (** MSHR-like cap on outstanding sectors *)
  load_use_distance : int;
      (** instructions the compiler schedules between a load and its use *)
  load_slots : int;  (** scoreboard slots: loads a warp keeps in flight *)
  fp32_units_factor : int;
      (** issue cycles per fp32 op: 1 on Pascal's 128-core SM, 2 on
          Volta's 64-core partitions *)
}

val gtx1080ti : t
val v100 : t
val all : t list
val by_name : string -> t option
val max_warps_per_sm : t -> int

(** The limits in the form {!Hfuse_core.Occupancy} consumes. *)
val sm_limits : t -> Hfuse_core.Occupancy.sm_limits

val pp : t Fmt.t
