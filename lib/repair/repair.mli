(** Diagnostic-driven repair of rejected fusions.

    When the static fusion-safety verifier refuses a fused kernel, this
    engine consumes the structured {!Hfuse_analysis.Diag.kind} list and
    applies the matching minimal transformation — renumber colliding
    [bar.sync] ids, rewrite full [__syncthreads()] into partition-scoped
    counted barriers, guard racing block-uniform shared writes behind a
    leader election plus a barrier, re-base overlapping shared regions,
    lower the register bound or shrink inter-kernel padding when a
    resource budget is blown — then re-runs the verifier, iterating to a
    bounded fixpoint.

    Repair is {e heuristic}: a transformation that satisfies the static
    verifier may still change the kernel's observable behaviour (e.g.
    electing a single writer when the racing stores were
    thread-dependent).  Callers that admit repaired fusions into
    search/profiling MUST gate them behind the differential oracle
    (unfused-vs-fused byte-for-byte); this library deliberately has no
    simulator dependency so every admission path supplies its own gate
    and unsound repairs fail closed back to rejection. *)

module Diag = Hfuse_analysis.Diag
module Verifier = Hfuse_analysis.Verifier

(** One applied transformation, for provenance and logs.  [a_tag] is a
    stable kebab-case strategy name; [a_detail] is human-readable. *)
type action = { a_tag : string; a_detail : string }

val pp_action : action Fmt.t

(** A fusion that now passes the static verifier. *)
type repaired = {
  fused : Hfuse_core.Hfuse.t;  (** regenerated from the repaired inputs *)
  reg_bound : int option;
      (** register bound the repair forces (the fusion is only clean
          under it); [None] when no resource repair was needed *)
  actions : action list;  (** applied transformations, in order *)
  rounds : int;  (** verify/repair iterations consumed *)
  residual : Diag.t list;  (** final diagnostics — warnings only *)
}

(** Why repair gave up; all constructors fail closed back to rejection. *)
type failure =
  | Unserviceable of Diag.t list
      (** no strategy matches any of the remaining errors *)
  | No_progress of Diag.t list
      (** strategies fired but left the inputs unchanged *)
  | Budget_exhausted of Diag.t list
      (** the fixpoint did not converge within [max_rounds] *)
  | Generate_failed of string
      (** the repaired inputs no longer fuse structurally *)

val pp_failure : failure Fmt.t

(** [attempt k1 k2] repairs a kernel pair whose fusion the verifier
    rejected: generate (unchecked), verify, dispatch strategies on the
    error kinds, transform the {e input} kernels (or the forced
    register bound / shared-memory padding), and regenerate — at most
    [max_rounds] (default 8) times.  Returns [Ok] only when the
    regenerated fusion is statically clean; a pair that was never
    broken comes back [Ok] with [actions = []].

    The inputs must already be configured at the partition's block
    dimensions (as inside {!Hfuse_core.Search.search} phase 1). *)
val attempt :
  ?limits:Hfuse_analysis.Limits.t ->
  ?max_rounds:int ->
  Hfuse_core.Kernel_info.t ->
  Hfuse_core.Kernel_info.t ->
  (repaired, failure) result

(** Sides-level repair for already-fused sources (the CLI's [check]
    verb), where no input kernels exist to regenerate.  Also services
    the two kinds {!attempt} can never see from [generate] — a full
    [__syncthreads()] inside a partial side becomes [bar.sync id,
    count], and overlapping dynamic shared regions are re-based
    serially (16-aligned). *)
type sides_repaired = {
  r_sides : Verifier.side list;
  r_smem_dynamic : int;  (** re-based total when regions moved *)
  r_reg_bound : int option;
  r_actions : action list;
  r_rounds : int;
  r_residual : Diag.t list;
}

val repair_sides :
  ?limits:Hfuse_analysis.Limits.t ->
  ?max_rounds:int ->
  threads:int ->
  regs:int ->
  smem_dynamic:int ->
  Verifier.side list ->
  (sides_repaired, failure) result
