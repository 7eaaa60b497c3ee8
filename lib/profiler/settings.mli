(** Per-run profiling configuration, resolved once and threaded
    explicitly.

    A {!t} carries every profiling knob: traced blocks, simulator fuel,
    the memory-tier bound, the cache root and the chaos plan.  This
    module is the only reader of their environment variables
    ([HFUSE_TRACE_BLOCKS], [HFUSE_SIM_FUEL], [HFUSE_TRACE_MEM_MB],
    [HFUSE_CACHE]/[HFUSE_CACHE_DIR], [HFUSE_FAULT]), and only inside
    {!resolve}.  The CLI and bench resolve one value per run from their
    flags and the environment; the daemon resolves a base value at
    startup and overrides it per request.  Code below them takes the
    value as an argument and never consults a process default. *)

type t = {
  trace_blocks : int;  (** traced blocks per profiling launch *)
  sim_fuel : int;  (** per-warp interpreter loop-fuel watchdog budget *)
  trace_mem_mb : int;
      (** byte bound (in MB) on the process-wide memory tier of
          traces, replay reports and candidate times; [0], the
          default, means unbounded ([HFUSE_TRACE_MEM_MB]) *)
  cache_dir : string option;
      (** persistent profile-cache root; [None] disables the cache *)
  fault : Hfuse_fault.Fault.plan option;
      (** chaos plan scoping this work's injection draws; [None] means
          no injection *)
}

(** A settings value: each given field as passed, every other field
    from its environment variable — [HFUSE_TRACE_BLOCKS] (default 1),
    [HFUSE_SIM_FUEL] (default {!Gpusim.Launch.default_loop_fuel}),
    [HFUSE_TRACE_MEM_MB] (default 0), [HFUSE_CACHE]/[HFUSE_CACHE_DIR]
    (default off) and [HFUSE_FAULT] (default none); an empty variable
    counts as unset.  With every field given it reads no environment
    and only validates.
    @raise Invalid_argument on [trace_blocks]/[sim_fuel] below 1 or
    [trace_mem_mb] below 0.
    @raise Hfuse_fault.Fault.Invalid_spec on a malformed [HFUSE_FAULT]. *)
val resolve :
  ?trace_blocks:int ->
  ?sim_fuel:int ->
  ?trace_mem_mb:int ->
  ?cache_dir:string option ->
  ?fault:Hfuse_fault.Fault.plan option ->
  unit ->
  t

(** The root a [--cache] flag enables: [HFUSE_CACHE_DIR], else
    {!Profile_cache.default_dir}. *)
val cache_root : unit -> string

(** A fresh profile-cache handle for these settings: enabled at
    [cache_dir] when set (chaos draws scoped to [fault]), disabled
    otherwise.  Handles are cheap; concurrent requests sharing one
    directory are safe (entries commit by atomic rename). *)
val cache : t -> Profile_cache.t

(** A fresh trace-store handle for these settings: its disk tier lives
    under [cache_dir/traces/] when [cache_dir] is set, disabled
    otherwise (the shared in-memory tier always works). *)
val trace_store : t -> Trace_store.t

(** The memory-tier bound in bytes, or [None] for unbounded
    ([trace_mem_mb = 0]). *)
val trace_limit_bytes : t -> int option
