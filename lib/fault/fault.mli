(** Deterministic chaos injection for the profiling pipeline.

    The harness injects three availability faults — a worker domain
    crashing mid-task, a committed cache entry getting corrupted, and a
    simulated kernel hanging — so the recovery paths (retry, quarantine
    + recompute, fuel watchdog) are exercised in tests and CI, the same
    philosophy as the fuzzer's [--inject-barrier-bug] extended from
    correctness to availability.

    Every draw is a pure hash of (campaign seed, fault kind, call-site
    key): whether a given operation faults never depends on wall time,
    worker count, or scheduling, so runs with injection enabled remain
    reproducible.  Injected faults are transient by construction — a
    retry of the same operation draws a fresh key (or skips the
    injection point) and succeeds — which is what makes the end-to-end
    guarantee testable: results under [--fault] are bit-identical to a
    fault-free run. *)

type kind =
  | Worker_crash  (** a pool task dies with an exception mid-flight *)
  | Cache_corrupt  (** a committed cache entry is truncated on disk *)
  | Sim_hang  (** a launch spins until the fuel watchdog fires *)

val all_kinds : kind list
val kind_name : kind -> string

(** Raised at an injection point when the draw fires.  Recovery layers
    treat it as transient: retry (pool, launch) or recompute
    (quarantined cache entry). *)
exception Injected of kind

(** A malformed fault spec.  Raised by {!plan_of_spec} instead of
    exiting: library code never kills its host process.  A daemon maps
    it to one failed request; the CLIs map it to exit 2. *)
exception Invalid_spec of string

(** A parsed fault plan: per-kind rates plus a campaign seed.  There is
    no process-wide plan: callers pass one to every draw ([?plan] on
    the functions below; omitted means no faults), so a long-lived
    server threads one per request without concurrent requests
    clobbering each other's configuration. *)
type plan

(** [plan_of_spec spec] parses a spec: a comma-separated [kind:rate]
    list, e.g. ["worker_crash:0.05,cache_corrupt:0.1,sim_hang:0.02"], optionally
    with a [seed:N] entry (default seed 1).  Rates must be in [0, 1].
    [None] for an empty spec (no faults).
    @raise Invalid_spec on a malformed spec. *)
val plan_of_spec : string -> plan option

(** Render a plan as a spec string that {!plan_of_spec} reparses to an
    equal plan — how a client ships its plan to a server. *)
val to_spec : plan -> string

(** Whether a fault plan is in force: [plan] was given. *)
val enabled : ?plan:plan -> unit -> bool

(** Configured rate for a kind (0 when unconfigured or disabled). *)
val rate : ?plan:plan -> kind -> float

(** [fires k ~key] — pure deterministic draw: true with probability
    [rate k], as a hash of (seed, kind, key).  Same key, same answer. *)
val fires : ?plan:plan -> kind -> key:int -> bool

(** A fresh draw key for call sites with no natural stable key (e.g.
    launches): a per-kind atomic sequence number.  Monotonic within a
    process; combined with the seed by {!fires}. *)
val fresh_key : kind -> int

(** [mix a b] — a cheap avalanche mix of two ints, for deriving
    per-task draw keys (e.g. pool call id x task index). *)
val mix : int -> int -> int

(** Deterministic retry backoff: exponential in [attempt] with
    seed-mixed jitter derived from [key] — no wall clock, no global
    PRNG, so a retried schedule is identical on every run.  Seconds;
    bounded (~2 ms at attempt 0, capped well under a second). *)
val jitter : ?plan:plan -> key:int -> attempt:int -> unit -> float

(** Count an injected fault, or an operation that failed with one and
    then succeeded (retry) or was repaired (quarantine + recompute), in
    the current ledger's [fault] section ({!Ledger.add}). *)
val note_injected : kind -> unit

val note_recovered : kind -> unit

(** A kind's injections and recoveries counted in a ledger. *)
val injected : Ledger.t -> kind -> int

val recovered : Ledger.t -> kind -> int

(** A ledger's fault section:
    ["injected N (crash C, corrupt K, hang H), recovered M"]. *)
val pp_tally : Ledger.t Fmt.t

(** [with_retries ~key f] runs [f], re-running it after an {!Injected}
    fault (deterministic backoff-free retry; injected faults re-draw
    and are transient, capped at 64 attempts) and up to [budget]
    (default 0) times after any other exception.  Notes a recovery when
    a retried call succeeds.  When attempts are exhausted the last
    exception is re-raised with its original backtrace. *)
val with_retries : ?budget:int -> key:int -> (unit -> 'a) -> 'a
