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

    {!search} runs [Hfuse_core.Search.search] with named stages as its
    hooks: trace (time-tier lookup, then the missing traces, one
    recording per distinct trace key), replay (the pure [Timing.run]
    replays over an OCaml 5 domain pool, [~jobs], stored in the
    persistent profiling cache {!Profile_cache}, [~cache]), rank (the
    cost model's calibration, probes and scores), repair, and account.
    Traces, reports and times are computed through
    {!Trace_store.get_or_compute}, once across concurrent requests.
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

(** {!Trace_store.clear_memory}: drop the in-process memory tier of
    traces, reports and times; persistent entries survive. *)
val clear_cache : unit -> unit

val static_smem : Hfuse_core.Kernel_info.t -> int

(** Timing spec for one kernel (building block for custom runs). *)
val spec_of :
  settings:Settings.t -> ?arch:string -> configured -> ?block_dim:int ->
  stream:int -> unit -> Gpusim.Timing.launch_spec

(** Native baseline: both kernels via parallel streams (FIFO dispatch).

    The replay goes through the same tiers as {!run_many}, keyed by
    {!Profile_cache.report_key} over the two launch specs and their
    packed traces: the persistent report cache (default: minted from
    [settings], as {!search} does), then the process-wide
    memory tier under [settings]' bound.  A miss replays on the
    calling domain, single-flighted, and lands in every tier; a report
    not replayed here adds its stored engine stats to the current
    ledger ({!Gpusim.Timing.note_stats}).  Either way the report is
    bit-identical to a fresh replay. *)
val native :
  settings:Settings.t -> ?cache:Profile_cache.t -> Gpusim.Arch.t ->
  configured -> configured -> Gpusim.Timing.report

(** One kernel alone (Fig. 8 metrics, ratio probes), like {!native}. *)
val solo :
  settings:Settings.t -> Gpusim.Arch.t -> configured -> Gpusim.Timing.report

(** Traces of a horizontally fused kernel (recorded in a fresh memory
    on first use; stored).  Single-flighted: concurrent callers of one
    key share the first recording. *)
val hfuse_traces :
  settings:Settings.t -> ?arch:string -> configured -> configured ->
  Hfuse_core.Hfuse.t -> Gpusim.Trace.block array

(** Launch spec for a fused candidate over already-recorded traces.
    Pure — safe to build and [Timing.run] on any domain. *)
val hfuse_spec :
  Hfuse_core.Hfuse.t -> reg_bound:int option ->
  traces:Gpusim.Trace.block array -> Gpusim.Timing.launch_spec

(** Time a fused kernel under an optional register bound (interprets it
    in profiling mode on first use; replayed like {!solo}). *)
val hfuse_report :
  settings:Settings.t -> Gpusim.Arch.t -> configured -> configured ->
  Hfuse_core.Hfuse.t -> reg_bound:int option -> Gpusim.Timing.report

(** Vertical baseline at the larger native block dimension (tunable
    kernels adapt; a smaller fixed kernel is guarded).
    @raise Hfuse_core.Fuse_common.Fusion_error when illegal. *)
val vfuse_generate : configured -> configured -> Hfuse_core.Vfuse.t

(** Launch spec for the vertical baseline over stored traces (records
    them in a fresh memory on first use; the spec is pure). *)
val vfuse_spec :
  settings:Settings.t -> ?arch:string -> configured -> configured ->
  Hfuse_core.Vfuse.t -> Gpusim.Timing.launch_spec

(** Fused block dimension target: 1024 for tunable pairs; the native sum
    when both kernels are fixed. *)
val d0_for : configured -> configured -> int

(** The ledger's ["search"] section, in telemetry field order: every
    {!search} adds what it did to the current ledger ({!Ledger.run}
    reads one request's).  [profiled]: candidates timed on the
    simulator; [cache_hits]: answered by the disk cache or another
    request's claim; [failed]: excluded after a
    failed profile (infinite time, never the winner); [ranked]: scored
    by the cost model; [pruned]: skipped by top-K pruning; [rank_agree]
    of [rank_total]: exhaustive searches whose model pick matched the
    simulated best, [max_regret_pct] ([Max]) the worst gap in percent;
    [traced]/[trace_hits]: distinct trace keys recorded / answered by
    the store; [trace_merged]: trace needs deduped onto a key already
    requested; [repair_attempted]/[repaired]/[repair_unsound]: rejected
    partitions handed to repair / admitted after the differential
    oracle / refuted by it; the [_wall_s] pair: seconds inside
    profiling and trace acquisition. *)
module Counters : sig
  val profiled : Ledger.counter
  val cache_hits : Ledger.counter
  val profile_wall_s : Ledger.counter
  val failed : Ledger.counter
  val ranked : Ledger.counter
  val pruned : Ledger.counter
  val rank_agree : Ledger.counter
  val rank_total : Ledger.counter
  val max_regret_pct : Ledger.counter
  val traced : Ledger.counter
  val trace_hits : Ledger.counter
  val trace_merged : Ledger.counter
  val trace_wall_s : Ledger.counter
  val repair_attempted : Ledger.counter
  val repaired : Ledger.counter
  val repair_unsound : Ledger.counter

  (** [rej_<tag>] per {!Hfuse_analysis.Diag.all_kind_tags} entry, by
      tag: error diagnostics on finally-rejected partitions, also when
      the verifier rejects them all and the search raises. *)
  val rejections : (string * Ledger.counter) list
end

(** The benchmark harness's view of one {!search}'s counters, for
    [?stats]: the fields it reads. *)
type search_stats = {
  mutable profiled : int;
  mutable cache_hits : int;
  mutable profile_wall_s : float;
  mutable traced : int;
  mutable trace_hits : int;
  mutable trace_merged : int;
  mutable trace_wall_s : float;
}

val fresh_search_stats : unit -> search_stats

(** A ledger's search section as the one-line summary the CLI and the
    bench print. *)
val pp_search_stats : Ledger.t Fmt.t

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
    fresh pool of [jobs] workers is scoped to the call, opened only
    when something misses.  Spec lists must already hold their traces.

    Entries resolve as {!native}'s does — the persistent report cache
    (default: minted from [settings]), then the memory tier — through
    the batch resolver {!search}'s replay stage uses: each distinct
    missing key is replayed once on the pool (single-flighted, under
    [settings]' [worker_crash] chaos) and stored after.  Hits add their
    recorded engine stats to the current ledger.  A replay that fails
    re-raises, the lowest-index one first. *)
val run_many :
  ?pool:Hfuse_parallel.Pool.t -> ?jobs:int -> settings:Settings.t ->
  ?cache:Profile_cache.t ->
  (Gpusim.Arch.t * Gpusim.Timing.launch_spec list) array ->
  Gpusim.Timing.report array

(** The Fig. 6 search with the simulator as the profiling oracle.

    @param jobs  domain-pool width for trace acquisition and the
                 timing fan-out (default 1: everything on the calling
                 domain); one pool serves the whole search.
    @param pool  reuse a live pool instead of spawning [jobs] workers
                 (takes precedence over [jobs]).
    @param settings the run's configuration ({!Settings.t}: traced
                 blocks, simulator fuel, trace-memory bound, cache
                 root, chaos plan).
    @param stats a view the call's own {!Counters} are added to when
                 it returns or raises; every counter, these included,
                 also lands in the current ledger.
    @param cache persistent profiling cache (default: minted from
                 [settings] — disabled unless its [cache_dir] is set).
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
    candidate fails does the call raise [Failure].  Such a failure is
    deterministic (injected faults retry in the pool), so a probe that
    failed is warned about and counted once, never profiled again.

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
  ?jobs:int -> ?pool:Hfuse_parallel.Pool.t -> settings:Settings.t ->
  ?stats:search_stats -> ?cache:Profile_cache.t ->
  ?top_k:int -> ?repair:bool ->
  Gpusim.Arch.t -> configured -> configured -> Hfuse_core.Search.result

val naive_hfuse : configured -> configured -> Hfuse_core.Hfuse.t option

(** Full-grid correctness: run the fused kernel in fresh memory and
    check both kernels' outputs against their host references. *)
val validate_hfuse :
  settings:Settings.t -> Kernel_corpus.Spec.t -> size1:int ->
  Kernel_corpus.Spec.t -> size2:int -> d1:int -> d2:int ->
  (unit, string) result

val validate_vfuse :
  settings:Settings.t -> Kernel_corpus.Spec.t -> size1:int ->
  Kernel_corpus.Spec.t -> size2:int -> (unit, string) result
