(** The paper's evaluation (Section IV), experiment by experiment:
    Figure 7 ratio sweeps, Figure 8 individual-kernel metrics, Figure 9
    fused-kernel metrics with and without the register bound.

    Every figure runs in two phases: the Fig. 6 searches walk the pairs
    in order (each fans its recordings and replays over the pool), then
    the measurement replays fan out over one shared
    [Hfuse_parallel.Pool] ([~jobs]/[~pool]).  Recordings and replays
    are pure, so results are bit-identical for any worker count.
    Every {!Runner.search} of a figure adds its counters to the current
    ledger: run a figure under {!Ledger.run} to read them. *)

(** Per-kernel sizes with solo times close to a common target, per
    architecture (the paper's "execution time ratios close to one");
    traced and replayed under [settings] (default:
    [Settings.resolve ()], the environment's), and resolved through
    the report tiers like every other replay ({!Runner.run_many}): the
    persistent report cache (default: minted from [settings]), then the
    process-wide memory tier.  [pool] parallelises
    the solo probes that miss. *)
val representative_sizes :
  ?settings:Settings.t ->
  ?pool:Hfuse_parallel.Pool.t ->
  ?cache:Profile_cache.t ->
  Gpusim.Arch.t ->
  (string * int) list

(** A kernel's size in a {!representative_sizes} answer (its default
    size when absent). *)
val size_of : (string * int) list -> Kernel_corpus.Spec.t -> int

(** A pair's workload sizes: each explicit size as given, a missing one
    from {!representative_sizes} under [settings], over [cache].  The probe runs only when a size is missing. *)
val pair_sizes :
  settings:Settings.t ->
  cache:Profile_cache.t ->
  Gpusim.Arch.t ->
  Kernel_corpus.Spec.t * int option ->
  Kernel_corpus.Spec.t * int option ->
  int * int

type point = {
  size1 : int;
  size2 : int;
  ratio : float;  (** solo time 1 / solo time 2 *)
  native_ms : float;
  hfuse_ms : float;  (** best searched configuration *)
  hfuse_d1 : int;
  hfuse_d2 : int;
  hfuse_reg_bound : int option;
  vfuse_ms : float option;  (** [None] when vertical fusion is illegal *)
  naive_ms : float option;  (** even partition; deep-learning pairs only *)
}

(** Speedup percentage of [fused] vs [native] ((native/fused - 1)*100). *)
val speedup : native:float -> fused:float -> float

type sweep = {
  pair : Kernel_corpus.Spec.t * Kernel_corpus.Spec.t;
  arch : Gpusim.Arch.t;
  varied_first : bool;  (** the paper stars the varied kernel *)
  points : point list;
}

val avg_hfuse_speedup : sweep -> float
val avg_vfuse_speedup : sweep -> float

(** The paper's ratio points: 0.25x .. 4x the representative size. *)
val default_multipliers : float list

(** Figure 7: all pairs x all architectures, over one shared pool. *)
val figure7 :
  ?multipliers:float list ->
  ?jobs:int ->
  settings:Settings.t ->
  ?cache:Profile_cache.t ->
  ?top_k:int ->
  ?archs:Gpusim.Arch.t list ->
  ?pairs:(Kernel_corpus.Spec.t * Kernel_corpus.Spec.t) list ->
  unit ->
  sweep list

type kernel_row = {
  kernel : Kernel_corpus.Spec.t;
  per_arch : (Gpusim.Arch.t * Gpusim.Metrics.t) list;
}

(** Figure 8: each kernel solo at its representative workload. *)
val figure8 :
  ?jobs:int ->
  ?pool:Hfuse_parallel.Pool.t ->
  settings:Settings.t ->
  ?cache:Profile_cache.t ->
  ?archs:Gpusim.Arch.t list ->
  unit ->
  kernel_row list

type fused_variant = {
  speedup_pct : float;
  metrics : Gpusim.Metrics.t;
  d1 : int;
  d2 : int;
  reg_bound : int option;
}

type fused_row = {
  f_pair : Kernel_corpus.Spec.t * Kernel_corpus.Spec.t;
  f_arch : Gpusim.Arch.t;
  native_util : float;  (** cycle-weighted average of the two solos *)
  no_regcap : fused_variant;
  regcap : fused_variant option;  (** [None] when r0 is not computable *)
}

val figure9_pair :
  ?jobs:int ->
  ?pool:Hfuse_parallel.Pool.t ->
  settings:Settings.t ->
  ?cache:Profile_cache.t ->
  ?top_k:int ->
  Gpusim.Arch.t ->
  (string * int) list ->
  Kernel_corpus.Spec.t * Kernel_corpus.Spec.t ->
  fused_row

(** Figure 9: both register-bound variants at the searched partition.
    Phase 1 (tracing + search) is serial over all pairs; one pool-wide
    fan-out then replays every measurement run at once. *)
val figure9 :
  ?jobs:int ->
  settings:Settings.t ->
  ?cache:Profile_cache.t ->
  ?top_k:int ->
  ?archs:Gpusim.Arch.t list ->
  ?pairs:(Kernel_corpus.Spec.t * Kernel_corpus.Spec.t) list ->
  unit ->
  fused_row list
