(** A fixed-size pool of OCaml 5 worker domains with a shared task
    queue (Domain/Mutex/Condition only).

    Built for the profiling search: tracing mutates [Memory.t] and
    stays on the calling domain, while the pure [Timing.run] candidate
    evaluations fan out here.  {!map} preserves input order, so callers
    get results bit-identical to a serial run regardless of worker
    count.

    Every task runs isolated: an exception in one task never kills the
    pool or the other tasks.  Failed tasks are retried a bounded number
    of times with deterministic, seed-mixed backoff
    ({!Hfuse_fault.Fault.jitter} — a pure function of the task key and
    attempt, never the wall clock), so retries cannot perturb result
    determinism at any [-j].  Faults injected by the chaos harness
    ({!Hfuse_fault.Fault.Injected}) are transient by construction and
    always retried.  The serial ([jobs <= 1]) path runs the identical
    isolation/retry wrapper, so fault draws and tallies do not depend
    on worker count. *)

type t

(** [create jobs] spawns [min jobs 64] worker domains.  [jobs <= 1]
    creates a degenerate pool that runs everything on the calling
    domain (no domains spawned) — unless [queue_limit] is given, which
    makes a {e service} pool: at least one worker always spawns (so
    {!submit} jobs drain asynchronously) and at most [queue_limit]
    submitted jobs may wait unstarted before {!submit} answers
    [`Overloaded] (admission control for a long-lived server). *)
val create : ?queue_limit:int -> int -> t

(** Effective parallelism: worker count, or 1 for a serial pool. *)
val size : t -> int

(** One task's terminal failure: the exception that exhausted its
    retry budget, with the backtrace captured where it was raised. *)
type failure = {
  f_index : int;  (** index into the input array *)
  f_attempts : int;  (** total attempts made (>= 1) *)
  f_exn : exn;
  f_backtrace : Printexc.raw_backtrace;
}

(** [map_isolated p f xs] applies [f] to every element with per-task
    isolation: each element yields either its result or its terminal
    {!failure}; one task's failure never affects another's.  Results
    are in input order.  [retries] bounds re-runs after a *real*
    exception (default 0 — a deterministic simulator usually fails the
    same way twice); injected faults are always retried.  [fault] is
    the chaos plan for the [worker_crash] draws (e.g. one request's
    plan in a server); omitted, nothing is injected.  [f] must be safe
    to run on another domain (no shared mutable state). *)
val map_isolated :
  ?retries:int -> ?fault:Hfuse_fault.Fault.plan -> t -> ('a -> 'b) ->
  'a array -> ('b, failure) result array

(** [map p f xs] is {!map_isolated} that re-raises on failure: if any
    task fails terminally, the lowest-index failure's exception is
    re-raised with its original backtrace after all tasks finish
    (deterministic at any [-j]; satellite of debuggability — the trace
    points at the raising task, not at the pool). *)
val map : ?fault:Hfuse_fault.Fault.plan -> t -> ('a -> 'b) -> 'a array -> 'b array

(** {!map} over lists, preserving order. *)
val map_list : ?fault:Hfuse_fault.Fault.plan -> t -> ('a -> 'b) -> 'a list -> 'b list

(** Admission verdict for one {!submit}. *)
type admission = [ `Queued | `Overloaded | `Shutdown ]

(** [submit ?priority p job] enqueues a fire-and-forget job on a
    service pool ({!create} with [~queue_limit]).  Higher [priority]
    (default 0) drains sooner; FIFO within a priority — {!map} batches
    ride the same queue at priority 0.  Answers [`Overloaded] without
    queueing when [queue_limit] unstarted jobs are already waiting,
    and [`Shutdown] once {!shutdown} began (including after it
    completed — a late submit racing a server's exit is refused, never
    an exception).  [job] runs on a worker domain; its exceptions are
    swallowed (the pool must outlive any one job), so the job itself
    must report its outcome.
    @raise Invalid_argument on a non-service pool (no [queue_limit]). *)
val submit : ?priority:int -> t -> (unit -> unit) -> admission

(** Submitted jobs queued but not yet started (always within
    [queue_limit]); the daemon's [stats] telemetry. *)
val pending_submits : t -> int

(** Signal workers to exit and join them.  The pool must not be used
    afterwards. *)
val shutdown : t -> unit

(** [with_pool jobs f] runs [f] with a fresh pool and always shuts it
    down, even if [f] raises.  [queue_limit] as in {!create}. *)
val with_pool : ?queue_limit:int -> int -> (t -> 'a) -> 'a

(** A sensible default worker count for this machine
    ([Domain.recommended_domain_count], capped). *)
val default_jobs : unit -> int

(** Availability counters: terminal task failures, retry attempts,
    and tasks that failed at least once but ultimately succeeded.  A
    task runs, and counts, under its submitter's {!Ledger.current}. *)
type tally = { failures : int; retries : int; recovered : int }

(** A ledger's [pool] section. *)
val tally_of : Ledger.t -> tally

(** {!tally_of} the process ledger: every task since start. *)
val tally : unit -> tally

(** [diff ~before ~after] — deltas between two {!tally} reads (clamped
    at 0): the work of everything that ran in between. *)
val diff : before:tally -> after:tally -> tally

(** ["F failures, R retries, C recovered"]. *)
val pp_tally : Format.formatter -> tally -> unit
