(** Kernel launches on the simulator: block/warp creation, shared-memory
    layout, argument binding, and the per-block warp scheduler that
    implements barrier arrival counting.

    Each warp runs as an OCaml-effects fiber; reaching a barrier
    suspends it, and the scheduler resumes all waiters once the
    barrier's thread count has arrived — the PTX arrival-counter
    semantics fused kernels rely on.  A barrier that can never be
    satisfied (e.g. a [__syncthreads()] surviving in a fused kernel) is
    reported as {!Deadlock}. *)

exception Deadlock of string
exception Launch_error of string

(** Fuel-watchdog trip: a warp of [block] exhausted its [fuel]
    interpreter loop iterations — a runaway (or injected-hung) kernel
    terminated instead of hanging its worker.  Structured so callers
    can record the diagnostic and degrade gracefully. *)
exception Sim_timeout of { kernel : string; fuel : int; block : int }

(** Default per-warp loop-fuel budget: 3,000,000 interpreter loop
    iterations.  The profiler passes its settings' fuel instead
    ([Settings.sim_fuel], seeded by [HFUSE_SIM_FUEL]). *)
val default_loop_fuel : int

type config = {
  grid : int;
  block : int * int * int;
  smem_dynamic : int;  (** [extern __shared__] bytes per block *)
  trace_blocks : int;  (** record dynamic traces for the first N blocks *)
  l1_sectors : int;
      (** modelled per-block L1 capacity in 32-byte sectors; 0 disables
          the cache model *)
  exec_blocks : int option;
      (** profiling mode: functionally execute only the first N blocks
          (the timing model replays traces cyclically); [None] runs the
          whole grid *)
}

type result = {
  block_traces : Trace.block array;  (** per traced block, per warp *)
  grid : int;
  threads_per_block : int;
  warps_per_block : int;
}

val static_shared_bytes : Cuda.Ast.stmt list -> int

(** Launch [fn] over the grid; [args] bind the kernel parameters
    positionally.  [fn] must be normalised already
    ({!Hfuse_frontend.Inline.normalize_kernel}): a launch does not
    normalise, so a caller that launches one kernel many times pays for
    it once, and a raw-source caller normalises first.  [loop_fuel] defaults to
    {!default_loop_fuel}.  [fault] is the chaos plan for this launch's
    [sim_hang] draw — e.g. one server request's; omitted, nothing is
    injected.
    @raise Deadlock on unsatisfiable barriers.
    @raise Launch_error on bad geometry or argument counts.
    @raise Interp.Exec_error on runtime faults in the kernel.
    @raise Sim_timeout when a warp exhausts its loop fuel.
    @raise Hfuse_fault.Fault.Injected on an injected [sim_hang] (the
    chaos harness; transient — a retry re-draws). *)
val launch :
  ?fault:Hfuse_fault.Fault.plan ->
  ?loop_fuel:int ->
  Memory.t ->
  fn:Cuda.Ast.fn ->
  args:Value.t list ->
  config ->
  result

(** Launch from a {!Hfuse_core.Kernel_info.t} (the harness path); its
    kernel must be normalised, as {!Hfuse_core.Kernel_info.normalized}
    returns it. *)
val launch_info :
  ?exec_blocks:int ->
  ?l1_sectors:int ->
  ?fault:Hfuse_fault.Fault.plan ->
  ?loop_fuel:int ->
  Memory.t ->
  Hfuse_core.Kernel_info.t ->
  args:Value.t list ->
  trace_blocks:int ->
  result
