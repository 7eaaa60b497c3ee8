(** Drives the evaluation's four execution modes — native (parallel
    streams), vertically fused, horizontally fused (searched), and the
    Naive even partition — through the simulator, with a two-tier
    trace store ({!Trace_store}) so ratio sweeps do not re-interpret
    unchanged kernels and warm reruns re-interpret nothing at all.

    Profiling launches execute only the traced blocks; the correctness
    entry points ([validate_*]) run whole grids in fresh memory.

    Every trace is recorded in a canonical environment — a fresh
    [Gpusim.Memory.t] holding only the keyed workload — which makes
    recordings pure functions of their key: they parallelize (each
    recording task owns its memory), persist on disk, and stay
    byte-identical to in-search recordings (trace payloads are
    coalescing analysis results, invariant under buffer renaming).

    {!search} is a two-phase engine: candidates are enumerated and
    verified serially, missing traces are recorded concurrently
    (deduped per distinct trace key), and the pure [Timing.run]
    replays fan out over an OCaml 5 domain pool ([~jobs]) with a
    persistent on-disk profiling cache ({!Profile_cache}, [~cache]).
    Results are bit-identical to the serial path for any worker count
    and any cache/store temperature. *)

(** A corpus kernel bound to a workload instance in some memory. *)
type configured = {
  spec : Kernel_corpus.Spec.t;
  size : int;
  info : Hfuse_core.Kernel_info.t;  (** at native block dimensions *)
  inst : Kernel_corpus.Workload.instance;
}

val configure :
  Gpusim.Memory.t -> Kernel_corpus.Spec.t -> size:int -> configured

(** Trace key: kernel identity, workload size(s) and block
    dimension(s).  Structured — both sizes and both block dimensions of
    a fused pair appear explicitly, so distinct size pairs can never
    collide onto one entry (the old packed encoding could, returning a
    stale trace).  {!Trace_store} digests additionally fold in the
    simulation fuel, the kernel source, and (on disk) the arch. *)
type trace_key =
  | K_solo of { kernel : string; size : int; block_dim : int; tb : int }
  | K_hfuse of {
      k1 : string;
      size1 : int;
      k2 : string;
      size2 : int;
      d1 : int;
      d2 : int;
      tb : int;
    }
  | K_vfuse of {
      k1 : string;
      size1 : int;
      k2 : string;
      size2 : int;
      block : int;
      tb : int;
    }

(** Drop the in-process memo tiers (trace-store memory, report and
    time memos); persistent entries survive. *)
val clear_cache : unit -> unit

(** Dynamic traces of [c] at a block dimension (default: native);
    stored.  [arch] scopes only the persistent trace entry — traces
    themselves are arch-independent, so the in-memory tier shares
    them across archs. *)
val traces_of :
  ?settings:Settings.t -> ?arch:string -> configured -> ?block_dim:int ->
  unit -> Gpusim.Trace.block array

val static_smem : Hfuse_core.Kernel_info.t -> int

(** Timing spec for one kernel (building block for custom runs). *)
val spec_of :
  ?settings:Settings.t -> ?arch:string -> configured -> ?block_dim:int ->
  stream:int -> unit -> Gpusim.Timing.launch_spec

(** Native baseline: both kernels via parallel streams (FIFO dispatch).

    The replay goes through the same tiers as {!run_many}, keyed by
    {!Profile_cache.report_key} over the two launch specs and their
    packed traces: the [checkpoint] journal (default
    {!Checkpoint.disabled}), then the persistent report cache (default:
    minted from [settings], as {!search} does), then the process-wide
    report memo.  A miss replays on the calling domain and lands in
    every tier; a hit folds the stored engine stats into
    {!Gpusim.Timing.cumulative_stats}.  Either way the report is
    bit-identical to a fresh replay. *)
val native :
  ?settings:Settings.t -> ?cache:Profile_cache.t -> ?checkpoint:Checkpoint.t ->
  Gpusim.Arch.t -> configured -> configured -> Gpusim.Timing.report

(** One kernel alone (Fig. 8 metrics, ratio probes). *)
val solo :
  ?settings:Settings.t -> Gpusim.Arch.t -> configured -> Gpusim.Timing.report

(** Traces of a horizontally fused kernel (recorded in a fresh memory
    on first use; stored).  Single-flighted: concurrent callers of one
    key share the first recording. *)
val hfuse_traces :
  ?settings:Settings.t -> ?arch:string -> configured -> configured ->
  Hfuse_core.Hfuse.t -> Gpusim.Trace.block array

(** Launch spec for a fused candidate over already-recorded traces.
    Pure — safe to build and [Timing.run] on any domain. *)
val hfuse_spec :
  Hfuse_core.Hfuse.t -> reg_bound:int option ->
  traces:Gpusim.Trace.block array -> Gpusim.Timing.launch_spec

(** Time a fused kernel under an optional register bound (interprets it
    in profiling mode on first use; cached thereafter). *)
val hfuse_report :
  ?settings:Settings.t -> Gpusim.Arch.t -> configured -> configured ->
  Hfuse_core.Hfuse.t -> reg_bound:int option -> Gpusim.Timing.report

val vfuse_block_dim : configured -> configured -> int

(** Vertical baseline at the larger native block dimension (tunable
    kernels adapt; a smaller fixed kernel is guarded).
    @raise Hfuse_core.Fuse_common.Fusion_error when illegal. *)
val vfuse_generate : configured -> configured -> Hfuse_core.Vfuse.t

(** Launch spec for the vertical baseline over stored traces (records
    them in a fresh memory on first use; the spec is pure). *)
val vfuse_spec :
  ?settings:Settings.t -> ?arch:string -> configured -> configured ->
  Hfuse_core.Vfuse.t -> Gpusim.Timing.launch_spec

val vfuse_report :
  ?settings:Settings.t -> Gpusim.Arch.t -> configured -> configured ->
  Hfuse_core.Vfuse.t -> Gpusim.Timing.report

(** Fused block dimension target: 1024 for tunable pairs; the native sum
    when both kernels are fixed. *)
val d0_for : configured -> configured -> int

(** Cumulative observability counters for the profiling search. *)
type search_stats = {
  mutable profiled : int;  (** candidates timed on the simulator *)
  mutable cache_hits : int;
      (** candidates answered by the disk cache or a resume journal *)
  mutable profile_wall_s : float;  (** wall time inside batch profiling *)
  mutable failed : int;
      (** candidates whose profile failed and were excluded from the
          search (their time is infinite, so they can never win) *)
  mutable ranked : int;
      (** candidates scored by the analytical cost model (phase 1.5) *)
  mutable pruned : int;
      (** verified candidates top-K pruning skipped (never profiled) *)
  mutable rank_agree : int;
      (** searches where the model's pick matched the simulated best
          time exactly *)
  mutable rank_total : int;
      (** searches that produced a model-vs-simulator verdict *)
  mutable max_regret_pct : float;
      (** worst gap between the model's pick and the fastest simulated
          candidate, in percent of the latter (0 when they agree) *)
  mutable traced : int;
      (** distinct trace keys freshly recorded (interpreter runs) *)
  mutable trace_hits : int;
      (** distinct trace keys answered by the store, memory or disk *)
  mutable trace_merged : int;
      (** candidate trace needs deduped onto an already-requested key
          (register-bound variants of one partition share a trace) *)
  mutable trace_wall_s : float;
      (** wall time inside trace acquisition (lookup + record + store) *)
  mutable repair_attempted : int;
      (** rejected partitions handed to the repair engine *)
  mutable repaired : int;
      (** partitions repaired, oracle-gated and admitted to profiling *)
  mutable repair_unsound : int;
      (** statically clean repairs the differential oracle refuted
          (failed closed back to rejection) *)
  mutable rejections : (string * int) list;
      (** per-{!Hfuse_analysis.Diag.kind_tag} histogram of the error
          diagnostics on finally-rejected partitions, sorted by tag *)
}

(** A zeroed record — one per server request, passed to {!search}'s
    [?stats] so per-request telemetry never mixes across requests. *)
val fresh_search_stats : unit -> search_stats

(** Snapshot of the process-wide counters. *)
val search_stats : unit -> search_stats

val reset_search_stats : unit -> unit
val pp_search_stats : search_stats Fmt.t

(** Model-vs-simulator verdict over one search's profiled candidates:
    [Some (i, regret_pct)] where [i] is the index of the fastest
    simulated candidate inside the model's top-[k] window (default 1)
    and [regret_pct] that candidate's simulated-time gap to the overall
    fastest, in percent — i.e. what a [--top-k k] pruned search would
    have lost against the exhaustive sweep.  [0.] means the window
    contains the true optimum.  [None] when no candidate has both a
    finite score and a finite time — no model ran, or every profile
    failed (failed candidates carry infinite time and are never
    picked). *)
val model_eval :
  ?k:int -> scores:float list -> times:float list -> unit -> (int * float) option

(** Fan pure [Timing.run] replays over worker domains: one
    (arch, launch-spec list) per report, results in input order
    (bit-identical to a serial loop for any width).  Pass [?pool] to
    reuse a live pool across many calls (figure sweeps); otherwise a
    fresh pool of [jobs] workers is scoped to the call.  Spec lists
    must already hold their traces — building them traces kernels,
    which stays on the calling domain.

    An enabled [cache] serves entries from the persistent report cache
    ({!Profile_cache.find_report}; keyed over the specs and their packed
    traces) and only fans the misses out, storing their reports after.
    Hits are bit-identical to replays, and each hit's recorded engine
    stats are folded into {!Gpusim.Timing.cumulative_stats}.

    An enabled [checkpoint] journal is consulted before the cache and
    records every result, so a killed run resumed with the same journal
    replays this call's answers bit-identically. *)
val run_many :
  ?pool:Hfuse_parallel.Pool.t -> ?jobs:int -> ?cache:Profile_cache.t ->
  ?checkpoint:Checkpoint.t ->
  (Gpusim.Arch.t * Gpusim.Timing.launch_spec list) array ->
  Gpusim.Timing.report array

(** The Fig. 6 search with the simulator as the profiling oracle.

    @param jobs  domain-pool width for the phase-2 timing fan-out
                 (default 1: everything on the calling domain).
    @param pool  reuse a live pool instead of spawning [jobs] workers
                 per profiling batch (takes precedence over [jobs]).
    @param settings per-request configuration ({!Settings.t}: traced
                 blocks, simulator fuel, cache root, chaos plan).
                 Default: {!Settings.current} — the process defaults,
                 resolved at call time.
    @param stats per-request telemetry sink; counters accumulate into
                 the caller's record instead of the process-wide one
                 ({!fresh_search_stats} mints an empty record).
    @param cache persistent profiling cache (default: minted from
                 [settings] — disabled unless its [cache_dir] is set,
                 which the [HFUSE_CACHE]/[HFUSE_CACHE_DIR] environment
                 seeds).
    @param checkpoint resume journal: candidate times and solo
                 calibration reports already recorded by an interrupted
                 run are replayed, and every fresh one is journaled
                 (default {!Checkpoint.disabled}).
    @param top_k profile only the [top_k] candidates the analytical
                 cost model ({!Hfuse_costmodel}) ranks best; the rest
                 are recorded un-profiled in [result.pruned].  Without
                 it the search stays exhaustive — the model still
                 scores every candidate (reported in [result.scores]
                 and the rank-agreement/regret stats) but prunes
                 nothing, so results are bit-identical to previous
                 releases.
    [best], [all] and [rejected] are bit-identical across any [jobs],
    across cold/warm cache runs, and across interrupted-and-resumed
    runs — and, for a given [top_k], across all of those too.

    Fault tolerance: a candidate whose profile fails (simulator
    watchdog trip, deadlock, a crashed worker past its retry budget)
    is excluded with an infinite time and a stderr warning, and the
    search degrades to best-of-completed; only when {e every}
    candidate fails does the call raise [Failure].

    With [~repair:true], partitions the fusion-safety verifier rejects
    get one {!Hfuse_repair.Repair.attempt}; a statically repaired
    fusion is admitted as a candidate only after the differential
    soundness oracle passes — both kernels launched sequentially in
    fresh memory versus the repaired fusion in fresh memory, global
    memory compared byte-for-byte.  Oracle-refuted (or undecidable)
    repairs fail closed back to rejection and count as
    [repair_unsound].  Rejection histograms ([rejections]) accumulate
    regardless of [repair]. *)
val search :
  ?jobs:int -> ?pool:Hfuse_parallel.Pool.t -> ?settings:Settings.t ->
  ?stats:search_stats -> ?cache:Profile_cache.t ->
  ?checkpoint:Checkpoint.t -> ?top_k:int -> ?repair:bool ->
  Gpusim.Arch.t -> configured -> configured -> Hfuse_core.Search.result

val naive_hfuse : configured -> configured -> Hfuse_core.Hfuse.t option

(** Full-grid correctness: run the fused kernel in fresh memory and
    check both kernels' outputs against their host references. *)
val validate_hfuse :
  ?settings:Settings.t -> Kernel_corpus.Spec.t -> size1:int ->
  Kernel_corpus.Spec.t -> size2:int -> d1:int -> d2:int ->
  (unit, string) result

val validate_vfuse :
  ?settings:Settings.t -> Kernel_corpus.Spec.t -> size1:int ->
  Kernel_corpus.Spec.t -> size2:int -> (unit, string) result
