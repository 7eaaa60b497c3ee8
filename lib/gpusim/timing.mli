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
    arithmetically.  A window stays valid until its cycle, a barrier
    release, a block dispatch, or a drain of memory completions while
    it holds a warp blocked on MSHR capacity: the in-flight count is
    all a drain changes that a window depends on.

    Repeating waves are advanced whole periods at a time.  At the end
    of each cycle that dispatched, while the Fifo head kernel's block
    templates all have work, the engine takes a digest of the machine
    state relative to the cycle: every SM class's members, blocks,
    pools and round-robin cursors; every warp's template, pc, ready
    time, state, scoreboard ring and spill counters; pipe and
    issue-port free times, the MSHR count and the completion queues;
    the barrier table and the per-cycle stall and residency
    contribution; the queue heads but not their cursors.  Cached
    windows and wakes are left out, as they decide only when a class
    is stepped, never what a step finds.  When a digest recurs after
    [P] cycles and [B] dispatched blocks, whole periods are added at
    once, each with the period's counter deltas and every absolute time
    shifted by [P], as long as each would pop its blocks exactly as the
    first did; then every scheduler window is dropped and the tail is
    stepped.

    Reports are bit-identical to the reference {!Timing_legacy} engine
    — the differential test suite enforces this field-for-field, and
    committed golden digests pin full reports. *)

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
    bit-identical.  The engine steps SM {e classes} — runs of adjacent
    SMs in identical states, stepped once for all members — so the step
    counts are per class, not per SM. *)
type engine_stats = {
  cycles_stepped : int;
      (** cycles the main loop actually visited (at least one SM live) *)
  cycles_skipped : int;
      (** globally-dead cycles charged arithmetically by skip-ahead *)
  sm_steps : int;
      (** SM-class step invocations (pools were scanned); one step
          serves every member of the class *)
  sm_steps_skipped : int;
      (** class-cycles on visited cycles served from a sleeping class's
          cached stall/residency contribution *)
  scan_skip_hits : int;
      (** scheduler steps answered by a cached scan-skip window
          (latency or structural miss) instead of a pool scan *)
  warp_allocs : int;  (** warp records freshly allocated *)
  warp_reuses : int;  (** warp records recycled from the free list *)
  periods_forwarded : int;
      (** whole periods of a repeating wave advanced without stepping *)
  cycles_forwarded : int;
      (** the cycles those periods span; stepped, skipped and forwarded
          cycles sum to the elapsed cycles *)
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

(** Add [s] to the current ledger's [engine] section, as {!run} does
    with its own stats, but for the forwarded periods and cycles, which
    only a fresh replay counts.  For callers that satisfy a replay from
    a cache but still count the producing replay's engine work (the
    profiler's report cache stores each report's stats alongside it,
    without the forwarded counts). *)
val note_stats : engine_stats -> unit

(** A ledger's [engine] section. *)
val engine_stats_of : Ledger.t -> engine_stats
