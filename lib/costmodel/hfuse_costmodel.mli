(** Analytical cost model for ranking fusion candidates without
    simulating them — the phase-1.5 pruning step of the search.

    Scores come from static inputs only: the pair's instruction mixes
    ({!Hfuse_core.Analyzer}), the candidate's partition / register
    estimate / register bound / shared memory, residency from
    {!Hfuse_core.Occupancy.blocks_per_sm}, and the architecture's
    latency and throughput parameters ({!Gpusim.Arch}).  The score is a
    roofline max of an issue-bandwidth bound, a DRAM-bandwidth bound and
    an occupancy-dependent latency-hiding bound; lower is better, and a
    candidate that cannot run at all (zero resident blocks) scores
    [infinity].  Scores are relative: only their order matters, and
    [Hfuse_profiler.Runner.model_eval] measures model quality from that
    order against simulated times. *)

open Hfuse_core

(** Pair-level features, computed once per search (candidate-invariant):
    instruction mixes and native work totals of the two kernels, plus
    the architecture and its SM limits. *)
type inputs = {
  arch : Gpusim.Arch.t;
  limits : Occupancy.sm_limits;
  mix1 : Analyzer.mix;
  mix2 : Analyzer.mix;
  work1 : int;  (** kernel 1 total threads at its native launch *)
  work2 : int;
  native1 : Kernel_info.t;  (** kernel 1 at its native configuration *)
  native2 : Kernel_info.t;
  cal1 : float;  (** kernel 1 cost multiplier from {!calibrate} (1 = raw) *)
  cal2 : float;
  probe : probe_model option;
      (** empirical per-pair shape from {!calibrate_probes} *)
}

(** Empirical time-vs-partition shapes fitted from profiled probe
    candidates, one {!family} per candidate family: the unbounded
    candidates ([p_unb]) and, per spilling register bound, its capped
    group ([p_capped]) — a register cap changes residency, spill
    traffic and the sides' domination crossover at once, so the
    families are fitted independently.  A family predicts
    [f_floor + max_i (f_l_i / (b * d_i))].  [p_times] records the
    probes' own observed times; a probed candidate is scored at ground
    truth.  A spilling candidate whose bound has no fitted family falls
    back to the unbounded fit under the static per-mix spill
    multiplier. *)
and probe_model = {
  p_unb : family;
  p_capped : (int * family) list;
  p_times : ((Partition.t * int option) * float) list;
}

and family = { f_floor : float; f_l1 : float; f_l2 : float }

(** [of_pair ~arch k1 k2] analyses the pair once.  [limits] defaults to
    [Gpusim.Arch.sm_limits arch].  The result is uncalibrated
    ([cal1 = cal2 = 1]). *)
val of_pair :
  ?limits:Occupancy.sm_limits ->
  arch:Gpusim.Arch.t ->
  Kernel_info.t ->
  Kernel_info.t ->
  inputs

(** Pin each kernel's cost magnitude to one observed solo run.  The
    static mixes rest on loop-trip guesses, so the RATIO of the two
    kernels' per-thread costs — what the partition ranking hinges on —
    can be off by integer factors; [calibrate inp ~solo1 ~solo2]
    (observed solo elapsed cycles of each kernel at its native launch)
    sets [cal1]/[cal2] to observed-over-predicted.  An unusable
    observation (non-finite or non-positive) leaves that side
    uncalibrated. *)
val calibrate : inputs -> solo1:float -> solo2:float -> inputs

(** The probe candidates {!calibrate_probes} consumes.  [lo] and [hi]
    are the unbounded candidates at minimal and maximal [d1] (the first
    candidate wins a tie); [mid] is the unbounded one nearest their
    middle (the earliest non-extreme wins a tie; [None] when every
    unbounded candidate is an extreme).  [capped] holds, per spilling
    register bound in increasing order, that group's extremes and
    middle chosen the same way — lo, then mid, then hi, and one probe
    when the group's lo is its hi. *)
type probes = {
  lo : Hfuse.t * Search.config;
  mid : (Hfuse.t * Search.config) option;
  hi : Hfuse.t * Search.config;
  capped : (Hfuse.t * Search.config) list;
}

(** [pick_probes candidates] picks the probes from a search's verified
    candidates, in search order.  [None] when fewer than two candidates
    are unbounded. *)
val pick_probes : (Hfuse.t * Search.config) list -> probes option

(** Fit the empirical {!probe_model} from profiled probe candidates.
    [lo] and [hi] must be UNBOUNDED candidates at the extremes of the
    partition range (minimal and maximal [d1]) with their simulated
    times; each pins the hyperbola of the side it starves.  [mid], an
    unbounded candidate near the middle, pins the residency-invariant
    floor by fixed point (no [mid] means floor 0).  [capped] holds
    profiled register-BOUNDED candidates — ideally the extremes and a
    middle of each spilling bound's group — from which each group's own
    family is fitted the same way (a group with fewer than two usable
    probes gets none and stays on the static spill multiplier).  With a
    fitted model, {!score} switches from the static roofline to the
    probe path; an unusable unbounded extreme (failed profile,
    register-bounded, zero residency) disables it. *)
val calibrate_probes :
  inputs ->
  lo:(Hfuse.t * Search.config) * float ->
  ?mid:(Hfuse.t * Search.config) * float ->
  ?capped:((Hfuse.t * Search.config) * float) list ->
  hi:(Hfuse.t * Search.config) * float ->
  unit ->
  inputs

(** Score one candidate (lower is better; [infinity] = cannot run).
    Monotone in occupancy starvation: for the same pair, a
    configuration with fewer resident blocks (or a tighter register
    bound, i.e. more spilling) never scores better. *)
val score : inputs -> fused:Hfuse.t -> config:Search.config -> float

(** Score a whole candidate list, in order — the shape
    {!Hfuse_core.Search.search}'s [rank] hook expects. *)
val rank : inputs -> (Hfuse.t * Search.config) list -> float list

(** Default pruning window for [--prune]: how many of the model's
    best-ranked candidates the search still simulates. *)
val default_top_k : int
