(** The fusion-configuration search — Main() of Fig. 6.

    For every thread-space partition, profile the fused kernel twice:
    as-is, and under the register bound r0 of
    {!Occupancy.register_bound}; keep the fastest candidate.  Profiling
    is a callback: the harness plugs in the cycle-level simulator, tests
    plug in synthetic cost functions, a hardware deployment would plug
    in nvcc+nvprof. *)

type config = { partition : Partition.t; reg_bound : int option }

(** One profiled candidate.  [repaired] marks provenance: the partition
    was first rejected by the verifier, then admitted by the repair
    engine (and its caller's differential soundness gate). *)
type candidate = {
  fused : Hfuse.t;
  config : config;
  time : float;
  repaired : bool;
}

type result = {
  best : candidate;
  all : candidate list;  (** every profiled candidate, in search order *)
  rejected : (Partition.t * Hfuse_analysis.Diag.t list) list;
      (** partitions the fusion-safety verifier refused — and, when a
          [repair] callback ran, repair could not soundly fix — with
          their original diagnostics (never profiled) *)
  pruned : (Hfuse.t * config * float) list;
      (** verified candidates the phase-1.5 ranking cut before
          profiling (search order, with their model scores); empty
          unless both [rank] and [top_k] were given and binding *)
  scores : float list;
      (** model scores of the profiled candidates, aligned with [all];
          empty when no [rank] callback was supplied *)
  admitted : int;  (** partitions the verifier accepted directly *)
  repaired : int;  (** partitions admitted only via repair *)
}

(** What a [repair] callback hands back when it can fix a rejected
    partition: the repaired fused kernel (regenerated from transformed
    inputs) and the register bound the repair forces, if any. *)
type repair_outcome = { r_fused : Hfuse.t; r_reg_bound : int option }

exception No_valid_partition of string

(** [search ~profile ~d0 k1 k2] runs the Fig. 6 algorithm in two
    phases: a serial phase enumerates partitions, generates and
    verifies the fused kernels and computes register bounds, building
    the candidate list in search order; a second phase evaluates the
    candidates.  [profile] receives the whole candidate list at once —
    the hook that lets a harness fan pure timing runs out over a domain
    pool and consult a persistent profiling cache; a per-candidate cost
    function is a [List.map].  It must return one running time per
    candidate (any consistent unit, under the candidate's register
    bound), in candidate order ([Invalid_argument] otherwise); [best]
    tie-breaking (first strictly-fastest in search order) is therefore
    the same whatever the evaluation strategy.

    Each partition's fused kernel passes through the static
    fusion-safety verifier before any profiling; rejected partitions
    are recorded in [result.rejected] and never profiled.  A register
    bound r0 that would not constrain the kernel (r0 at or above the
    fused register estimate) is also skipped — the unbounded profile
    already covers it.

    @param limits SM resource limits for the register bound and the
           partition/verifier thread caps (default: the Pascal/Volta
           values the paper uses).
    @param rank analytical cost model (phase 1.5): given the whole
           verified candidate list, returns one score per candidate in
           order (lower is better; [Invalid_argument] on a length
           mismatch).  Scores are recorded in [result.scores]; with
           [top_k] they drive pruning.
    @param top_k profile only the [top_k] best-scored candidates
           (clamped to at least 1); the rest land in [result.pruned]
           un-profiled.  Ties keep search order and the survivors are
           profiled in search order, so a [top_k] at or above the
           candidate count — or an absent [rank] — leaves the search
           bit-identical to the exhaustive one.
    @param d0 desired fused block dimension (1024 for tunable pairs;
           ignored when both kernels are fixed).
    @param repair called on each verifier-rejected partition with the
           kernels configured at the partition's block dimensions and
           the rejection diagnostics.  Returning [Some outcome] admits
           the repaired fusion as a candidate with [repaired = true]
           and the outcome's register bound; [None] keeps the
           rejection.  The callback is responsible for re-verification
           AND for the differential soundness gate — the search admits
           its outcome as-is.
    @param on_reject called once per finally-rejected partition (after
           any [repair] attempt), in search order.  Unlike
           [result.rejected], this also fires when every partition is
           rejected and the search raises {!No_valid_partition} —
           the hook the harness's rejection histograms rely on.
    @param bodies the two kernels' normalised bodies
           ({!Hfuse.normalize}) when the caller has them already;
           without it they are normalised once, for the first partition
           that needs them.
    @raise No_valid_partition when the pair admits no partition, or
           the verifier rejects every partition. *)
val search :
  ?limits:Occupancy.sm_limits ->
  ?rank:((Hfuse.t * config) list -> float list) ->
  ?top_k:int ->
  ?repair:
    (k1:Kernel_info.t ->
    k2:Kernel_info.t ->
    Hfuse_analysis.Diag.t list ->
    repair_outcome option) ->
  ?on_reject:(Partition.t -> Hfuse_analysis.Diag.t list -> unit) ->
  ?bodies:Cuda.Ast.fn * Cuda.Ast.fn ->
  profile:((Hfuse.t * config) list -> float list) ->
  d0:int ->
  Kernel_info.t ->
  Kernel_info.t ->
  result

(** The Naive evaluation variant: even partition, no profiling, no
    register bound. *)
val naive : d0:int -> Kernel_info.t -> Kernel_info.t -> Hfuse.t option
