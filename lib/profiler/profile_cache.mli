(** Persistent on-disk cache of profiled candidate times.

    Keys are content hashes of everything a candidate's simulated time
    depends on (GPU model, fused source, partition, launch geometry,
    register bound, workload sizes, trace-block count), so repeated
    [bench] / [hfuse search] sweeps skip the simulator entirely and the
    cache self-invalidates when any input — including the compiler's
    emitted source — changes.

    Entries are {!Store} checksummed entries under [dir]/v2/ (magic
    [hfuse-cache]); a corrupt one is quarantined to
    [<root>/quarantine/<key>], counted in {!corrupt}, and treated as a
    miss, so the value is recomputed and re-stored — a corrupted cache
    can slow a run down but never change its result.  A handle must be
    touched by one domain at a time (the one resolving through it);
    concurrent requests hold their own handles. *)

type t

(** Default cache directory ([_hfuse_cache], relative to the cwd). *)
val default_dir : string

(** An enabled cache rooted at [dir] (default {!default_dir}).
    [fault] is the chaos plan for this handle's corruption draws (e.g.
    one server request's); omitted, nothing is injected. *)
val create : ?dir:string -> ?fault:Hfuse_fault.Fault.plan -> unit -> t

(** A cache that never hits and never stores. *)
val disabled : unit -> t

val enabled : t -> bool

(** Versioned entry directory (empty for a disabled cache). *)
val dir : t -> string

(** {!Store.mkdir_p}. *)
val mkdir_p : string -> unit

(** Content hash identifying one profiled candidate. *)
val key :
  arch:string ->
  source:string ->
  d1:int ->
  d2:int ->
  grid:int ->
  smem_dynamic:int ->
  regs:int ->
  reg_bound:int option ->
  k1:string ->
  size1:int ->
  k2:string ->
  size2:int ->
  trace_blocks:int ->
  string

(** Cached time for [key], if present and well-formed.  Counts a hit or
    a miss; a checksum-failing entry is quarantined and counts as both
    a miss and a {!corrupt}. *)
val find : t -> key:string -> float option

(** Persist a time for [key] (no-op when disabled). *)
val store : t -> key:string -> float -> unit

(** Content hash identifying one measurement replay: the launch specs
    and the packed traces themselves (hashed in full), plus the GPU
    model and dispatch policy.  Any trace change self-invalidates. *)
val report_key :
  arch:string -> policy:string -> Gpusim.Timing.launch_spec list -> string

(** Cached report (with the engine stats of the replay that produced
    it) for [key], if present and well-formed.  Bit-identical to
    re-running the engine: every counter is stored exactly and every
    float as a [%h] hex literal.  Counts a hit or a miss. *)
val find_report :
  t -> key:string -> (Gpusim.Timing.report * Gpusim.Timing.engine_stats) option

(** Persist a report and its engine stats (no-op when disabled). *)
val store_report :
  t ->
  key:string ->
  Gpusim.Timing.report * Gpusim.Timing.engine_stats ->
  unit

(** Exact textual payload encodings, shared with the checkpoint
    journal.  [encode_time]/[encode_report] round-trip bit-identically
    through their decoders; the decoders raise [Failure] on malformed
    input. *)
val encode_time : float -> string

val decode_time : string -> float
val encode_report : Gpusim.Timing.report * Gpusim.Timing.engine_stats -> string
val decode_report : string -> Gpusim.Timing.report * Gpusim.Timing.engine_stats

(** Lifetime counters for this handle. *)
val hits : t -> int

val misses : t -> int
val stores : t -> int

(** Entries quarantined after a header/checksum/decode failure. *)
val corrupt : t -> int
