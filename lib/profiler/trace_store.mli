(** Persistent, bounded, shared store of recorded block traces.

    Traces are a pure function of their key (the interpreter's
    payloads are coalescing analysis results, not addresses, and the
    recording environment is a fresh memory with only the keyed
    workload instantiated — see Runner), so a warmed store reproduces
    cold-run results bit-for-bit.

    Two tiers: a process-wide in-memory LRU shared by every handle, and
    a per-handle on-disk tier of {!Store} entries under
    [<root>/traces/v1/<digest>] (magic [hfuse-traces]), corrupt ones
    quarantined and re-recorded.

    The LRU is the process's one memory tier: it holds traces, replay
    reports and candidate times ({!kind}), and {!get_or_compute} is the
    one way to fill it; its single-flight table dedups concurrent
    computations of one key.  Every insertion evicts least-recently
    used entries until the tier fits the caller's [limit_bytes]; the
    newest entry always stays. *)

(** Entry-format/version tag baked into paths and keys. *)
val version : string

(** The two-tier digest pair for one trace identity. *)
type key = private { mem : string; disk : string }

(** Derive both digests.  [ident] is the rendered trace identity
    (kernel names, sizes, partition, geometry, plus a source digest);
    [sim_fuel] and [trace_blocks] always participate (a trace recorded
    under generous fuel must not mask a timeout under a tight one).
    [arch] participates only in the disk digest: traces are
    arch-independent, so the in-memory tier shares them across a
    two-arch sweep, while long-lived shared directories pay for the
    defensive split. *)
val keys :
  arch:string -> sim_fuel:int -> trace_blocks:int -> ident:string list -> key

type t

(** An enabled store rooted at [dir] (default
    [Profile_cache.default_dir]); entries live under [dir/traces/v1].
    [fault] is the chaos plan for this handle's corruption draws;
    omitted, nothing is injected. *)
val create : ?dir:string -> ?fault:Hfuse_fault.Fault.plan -> unit -> t

(** A store whose disk tier never hits and never writes (the shared
    memory tier still works). *)
val disabled : unit -> t

(** Versioned entry directory (empty for a disabled store). *)
val dir : t -> string

(** What the memory tier holds; a kind mismatch on a key is a miss. *)
type _ kind =
  | Traces : Gpusim.Trace.block array kind
  | Report : (Gpusim.Timing.report * Gpusim.Timing.engine_stats) kind
  | Time : float kind

(** The value under [key] in the memory tier, else [compute ()]'s,
    inserted (evicting past [limit_bytes] if given).  Every profiled
    value in the process goes through here, so one single-flight
    arbitration covers them all: when several callers (tasks of one
    search, or concurrent requests) want one absent key, the first
    computes while the rest block and share the result.  If [compute]
    raises, the claim is released and a waiter retries.  [compute] runs
    outside the store lock and must not wait on queued pool work.
    Traces count [mem_hits] (and [merges] for a shared claim); a caller
    that blocked on another's claim of any kind counts a [waits] and
    its blocked seconds in [wait_s].  Counts land in the current
    ledger. *)
val get_or_compute :
  ?limit_bytes:int -> 'v kind -> key:string -> (unit -> 'v) -> 'v

(** A trace's computation under its claim on [key.mem]: the disk entry
    (a checksum- or decode-failing one is quarantined to
    [<root>/traces/quarantine/<digest>] and missed), else [record ()]'s
    traces, written to disk and counted as [recorded]. *)
val load_or_record :
  t -> key:key -> (unit -> Gpusim.Trace.block array) ->
  Gpusim.Trace.block array

(** Memory-tier lookup without a claim (a miss does not wait for a
    computation in flight); not counted. *)
val find_memo : 'v kind -> key:string -> 'v option

(** Drop every memory-tier entry (disk entries survive). *)
val clear_memory : unit -> unit

(** Test hook: force the memory bound to [Some bytes] regardless of
    the per-call [limit_bytes] ([None] restores normal behaviour). *)
val set_mem_limit_override : int option -> unit

(** Memory-tier occupancy over all kinds.  An entry costs its key plus
    its value: {!Gpusim.Trace.blocks_bytes}, a report's reachable heap
    words, 8 bytes for a time. *)
val mem_entries : unit -> int

val mem_bytes : unit -> int

(** The ledger's [trace_store] section, in this order.  Over trace
    entries: memory and disk hits, fresh recordings ([recorded] doubles
    as the miss count), disk writes, quarantined disk entries, LRU
    evictions and recordings saved by single-flight or batch dedup.
    Over claims of every kind: [waits] on another caller's claim and
    the seconds blocked ([wait_s]). *)
val mem_hits : Ledger.counter

val disk_hits : Ledger.counter
val recorded : Ledger.counter
val stores : Ledger.counter
val quarantined : Ledger.counter
val evictions : Ledger.counter
val merges : Ledger.counter
val waits : Ledger.counter
val wait_s : Ledger.counter

(** A ledger's trace-store counters: ["H mem hits, D disk hits, R
    recorded, M merged"], then evictions, quarantines and waits when
    nonzero. *)
val pp_tally : Ledger.t Fmt.t
