(** Persistent on-disk cache of replay reports: the figure sweeps'
    measurements and the search's candidate profiles, each a
    [Timing.report] keyed by {!report_key}.

    A key names every launch's scalars and the identity of its traces
    (the {!Trace_store} digest: kernel, sizes, geometry, traced blocks,
    fuel, [Trace_store.version] and a source digest, or a fused
    kernel's fusion identity), so repeated [bench] / [hfuse search]
    sweeps skip the simulator entirely, read no trace, print no fused
    source, and miss when any input changes.  The fusion identity
    names what generated a fused kernel (kind, both input sources,
    [Fuse_common.version]), not its bytes: a compiler change that
    moves the emitted source retires the entries only by bumping that
    version, which the profiler suite requires whenever
    test/golden/pretty.md5 changes.

    The same keys make a resumed run ([--resume]) a warm run: without a
    cache of its own, it profiles into a root named by its parameters
    ({!Settings.resumable}), and its rerun after a kill — a fleet
    shard's included, which runs every pair again — answers every entry
    the killed run committed.

    Entries are {!Store} checksummed entries under [dir]/v2/r-<digest>
    (magic [hfuse-cache]); a corrupt one is quarantined to
    [<root>/quarantine/<key>], counted in {!corrupt}, and treated as a
    miss, so the value is recomputed and re-stored — a corrupted cache
    can slow a run down but never change its result.  A handle must be
    touched by one domain at a time (the one resolving through it);
    concurrent requests hold their own handles. *)

type t

(** Entry-format/version tag of the entry directory, folded into every
    key.  Bumped with any engine change that moves a report for the
    same launches (test/golden/replay.md5 and draws.md5 pin those; the
    profiler suite pins this tag beside their digests).  A key
    derivation change that renames every entry it touches needs no
    bump. *)
val version : string

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

(** One launch's part of a replay's identity: its launch scalars and
    the identity of its traces. *)
type part = {
  label : string;
  grid : int;
  threads : int;  (** per block *)
  regs : int;
  spill : int;
  smem : int;
  stream : int;
  traced_blocks : int;
  trace : string;
      (** the {!Trace_store.key} digest the launch's traces are filed
          under: kernel, sizes, block dims, traced blocks, fuel and a
          source digest (a fused kernel's fusion identity) *)
}

(** Hash identifying one measurement replay: the GPU model, dispatch
    policy and every launch's {!part}.  A report is a pure function of
    these because traces are a pure function of their identity, so a
    lookup needs no trace in hand; a change to what an identity
    records must bump [Trace_store.version]. *)
val report_key : arch:string -> policy:string -> part list -> string

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

(** Lifetime counters for this handle. *)
val hits : t -> int

val misses : t -> int
val stores : t -> int

(** Entries quarantined after a header/checksum/decode failure. *)
val corrupt : t -> int
