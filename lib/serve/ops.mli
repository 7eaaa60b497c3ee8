(** The verb engine shared by the one-shot CLI and the daemon.

    Each serving verb maps typed parameters to an {!outcome} whose
    [output] field is the byte-exact stdout the one-shot CLI prints —
    the daemon serialises the same record into a response, so answers
    from the two paths are bit-identical by construction.

    Daemon-safety contract: no function here calls [exit], writes to
    the process's std channels, or mutates global configuration.
    Request-scoped knobs arrive as an explicit
    {!Hfuse_profiler.Settings.t}; request-scoped counters leave in the
    [telemetry] field. *)

module Json := Hfuse_profiler.Report.Json

type outcome = {
  output : string;  (** deterministic stdout payload *)
  log : string;  (** stderr: diagnostics, wall-clock stats *)
  exit_code : int;
  telemetry : Json.t;  (** per-request counters (cache/pool/fault/…) *)
}

(** A kernel source shipped to the engine: the CLI reads the file, the
    daemon receives it inline.  [ks_path] only labels diagnostics. *)
type kernel_src = {
  ks_path : string;
  ks_source : string;
  ks_block : int;
  ks_smem : int;
  ks_regs : int option;  (** [None]: estimate from the AST *)
}

type fuse_params = { f_k1 : kernel_src; f_k2 : kernel_src; f_grid : int }

type check_params = {
  c_arch : Gpusim.Arch.t;
  c_k1 : kernel_src;
  c_k2 : kernel_src option;  (** [None]: single-kernel mode *)
  c_grid : int;
  c_repair : bool;
      (** on rejection, run the repair engine and report the repaired
          verdict.  Static-only: [check] has no workload to execute, so
          this previews the transformation without the differential
          soundness gate — admission paths ([search], the fleet) always
          gate *)
}

type simulate_params = {
  m_arch : Gpusim.Arch.t;
  m_kernel : Kernel_corpus.Spec.t;
  m_size : int option;  (** [None]: the spec's default size *)
  m_validate : bool;
  m_engine_stats : bool;
}

type search_params = {
  s_arch : Gpusim.Arch.t;
  s_k1 : Kernel_corpus.Spec.t;
  s_k2 : Kernel_corpus.Spec.t;
  s_size1 : int option;  (** [None]: representative size *)
  s_size2 : int option;
  s_emit : bool;
  s_jobs : int;
  s_top_k : int option;  (** [Some k]: analytical top-K pruning *)
  s_repair : bool;
      (** hand verifier-rejected partitions to the repair engine;
          repaired candidates are admitted only after the differential
          soundness oracle passes *)
}

type request_params =
  | Fuse of fuse_params
  | Check of check_params
  | Simulate of simulate_params
  | Search of search_params

val verb_name : request_params -> string

(** Runs the Fig. 6 search under [settings] — the size probe included —
    with a fresh per-request stats record, a cache handle derived from
    [settings], and a fresh ledger ({!Ledger.run}) counting the
    request's own work on every domain; [telemetry] carries the
    search/cache counters and the ledger's trace-store, pool and fault
    sections.  [checkpoint]
    (resume journalling) and [pool] (shared worker pool) are CLI/daemon
    concerns respectively and default off.
    @raise Sys.Break and simulator exceptions as the CLI path does. *)
val search :
  settings:Hfuse_profiler.Settings.t ->
  ?checkpoint:Hfuse_profiler.Checkpoint.t ->
  ?pool:Hfuse_parallel.Pool.t ->
  search_params ->
  outcome

(** Dispatches one verb.  [settings] (read by [simulate] and [search]
    only) defaults to [Settings.resolve ()], the environment's; the
    daemon and the CLI pass their own value. *)
val run :
  ?settings:Hfuse_profiler.Settings.t ->
  ?checkpoint:Hfuse_profiler.Checkpoint.t ->
  ?pool:Hfuse_parallel.Pool.t ->
  request_params ->
  outcome
