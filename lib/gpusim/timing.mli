(** Cycle-level warp-scheduler replay — event-driven engine.

    Replays {!Interp} traces through a model of the SM
    microarchitecture and reports the nvprof-style metrics of the
    paper's Section IV-A.  Models per SM: 4 schedulers issuing one
    instruction per cycle from their warp pools (greedy round-robin);
    in-order warps with a multi-slot load scoreboard (loads park until
    a compiler-scheduled use point, so several pipeline per warp);
    per-class dependency latencies; structural pipes (DRAM bandwidth,
    MSHR in-flight cap, separate shared-memory and global LD/ST units,
    SFU, double-width fp32 issue on Volta); partial-barrier arrival
    counters; block residency limited exactly as
    {!Hfuse_core.Occupancy} computes; and deterministic spill-traffic
    injection for register caps.

    The engine steps per-SM and event-driven: every scheduler scan that
    finds no eligible warp caches a window — the earliest cycle any of
    its warps could issue (latency expiry, release of a pipe it needs,
    or an MSHR drain) — and an SM that provably cannot issue sleeps
    until the earliest of its windows and its next memory completion,
    while its constant stall/occupancy contribution is charged
    arithmetically.  Reports are bit-identical to the reference
    {!Timing_legacy} engine — the differential test suite enforces this
    field-for-field, and committed golden digests pin full reports. *)

exception Timing_error of string

(** How queued blocks reach SMs.  [Fifo] models the real Grid Management
    Unit for equal-priority streams: global submission order with
    head-of-line blocking, so concurrent kernels overlap only at the
    first one's tail.  [Leftover] is an idealised backfilling
    distributor, exposed for the ablation benches. *)
type dispatch_policy = Fifo | Leftover

(** One kernel launch submitted to the simulated GPU. *)
type launch_spec = {
  label : string;
  block_traces : Trace.block array;
      (** representative per-block traces; block [b] replays trace
          [b mod length] *)
  grid : int;
  threads_per_block : int;
  regs : int;  (** per-thread registers after any cap *)
  spill : int;  (** registers spilled by the cap (0 = none) *)
  smem : int;  (** shared bytes per block (static + dynamic) *)
  stream : int;
}

type kernel_metrics = {
  k_label : string;
  k_elapsed_cycles : int;
  k_issued : int;
  k_blocks_per_sm : int;
}

type report = {
  elapsed_cycles : int;
  time_ms : float;
  issued_slots : int;
  total_slots : int;
  issue_slot_util : float;  (** percent *)
  mem_stall_slots : int;
  sync_stall_slots : int;
  other_stall_slots : int;
  idle_slots : int;
  mem_stall_pct : float;
      (** percent of stall slots waiting on global/local memory (the
          nvprof "memory dependency" definition) *)
  occupancy : float;  (** percent achieved *)
  kernels : kernel_metrics list;
}

(** Engine self-profiling: how much work the event-driven stepping
    avoided relative to a step-every-SM-every-cycle loop, and how often
    warp records were recycled.  These count the engine's own work, not
    results: an engine change may move them while every report stays
    bit-identical. *)
type engine_stats = {
  cycles_stepped : int;
      (** cycles the main loop actually visited (at least one SM live) *)
  cycles_skipped : int;
      (** globally-dead cycles charged arithmetically by skip-ahead *)
  sm_steps : int;  (** per-SM step invocations (pools were scanned) *)
  sm_steps_skipped : int;
      (** SM-cycles on visited cycles served from a sleeping SM's
          cached stall/residency contribution *)
  scan_skip_hits : int;
      (** scheduler steps answered by a cached scan-skip window
          (latency or structural miss) instead of a pool scan *)
  warp_allocs : int;  (** warp records freshly allocated *)
  warp_reuses : int;  (** warp records recycled from the free list *)
}

val pp_engine_stats : Format.formatter -> engine_stats -> unit

(** Instructions between injected local-memory round trips for a
    register cap spilling [spill] registers ([max_int] when nothing
    spills).  Exposed so analytical models can mirror the engine's
    spill-traffic rate instead of hard-coding its calibration. *)
val spill_interval : int -> int

(** Run the launches to completion.  Deterministic.
    @raise Timing_error when a kernel cannot fit one block on an SM,
    a barrier can never be satisfied, or the cycle budget is exceeded. *)
val run : ?policy:dispatch_policy -> Arch.t -> launch_spec list -> report

(** Like {!run}, also returning this run's {!engine_stats}. *)
val run_with_stats :
  ?policy:dispatch_policy -> Arch.t -> launch_spec list -> report * engine_stats

(** Process-wide totals over every {!run} since start (or the last
    {!reset_cumulative_stats}).  Accumulated atomically, so replays
    fanned over {!Hfuse_parallel.Pool} worker domains are counted. *)
val cumulative_stats : unit -> engine_stats

val reset_cumulative_stats : unit -> unit

(** Fold [s] into the process-wide counters exactly as {!run} does with
    its own stats.  For callers that satisfy a replay from a cache but
    still want the producing replay's engine work accounted (the
    profiler's report cache stores each report's stats alongside it). *)
val accumulate_stats : engine_stats -> unit
