(** Static kernel analysis and fusion-partner recommendation — the
    paper's "optimization scenarios" contribution, operationalised:
    horizontal fusion pays when the two kernels have long-latency
    instructions that stress {e different} GPU resources (Sections I and
    IV-C).  The profiling search (Fig. 6) remains ground truth; this is
    the triage step that avoids profiling hopeless pairs. *)

(** Static instruction-mix summary of one kernel (loop bodies weighted
    by an assumed trip count, so the mix reflects the hot code). *)
type mix = {
  int_ops : int;
  float_ops : int;
  div_ops : int;  (** div/mod/transcendental (slow sequences) *)
  global_loads : int;
  global_stores : int;
  shared_ops : int;
  atomics : int;
  shuffles : int;
  barriers : int;
  loop_depth : int;
}

val analyze_fn : Cuda.Ast.fn -> mix

(** The paper's resource taxonomy (Section IV-C). *)
type character = Memory_intensive | Compute_intensive | Balanced

(** Classify by latency-weighted instruction mix. *)
val classify : mix -> character

val pp_character : character Fmt.t
val pp_mix : mix Fmt.t

(** Predicted fusion affinity in [0, 1]: 1 = the paper's ideal pairing
    (memory-intensive with compute-intensive, resources fit); near 0 =
    the anti-pattern (two compute kernels, occupancy collapse). *)
val affinity : ?limits:Occupancy.sm_limits -> Kernel_info.t -> Kernel_info.t -> float

(** All pairs from a candidate set, ranked best-first by {!affinity}. *)
val rank_pairs :
  ?limits:Occupancy.sm_limits ->
  Kernel_info.t list ->
  (Kernel_info.t * Kernel_info.t * float) list
