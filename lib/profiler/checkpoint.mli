(** Crash-safe checkpoint journal for interrupted runs.

    A journal records every profiled result of one logical run — the
    candidate times of the Fig. 6 searches and the full measurement
    replays — as it is produced, so a run killed mid-flight (crash,
    SIGKILL, Ctrl-C) can be resumed with [--resume]: already-journaled
    work is answered from the journal and only the remainder is
    recomputed.  Because every entry stores its value exactly (the
    {!Profile_cache} [%h] encodings) and lookups happen at the same
    points of the same deterministic schedule, an interrupted-and-
    resumed run produces output bit-identical to an uninterrupted one.

    The journal is a {!Store.Journal} at
    [_hfuse_cache/journal/<run_id>.jnl].  Loading drops a torn tail
    (the record being written when the process died) and any corrupted
    or undecodable record, counting them in {!torn} — resuming from a
    damaged journal recomputes the lost entries instead of failing.

    Run ids are content hashes of the run's parameters (figure, pairs,
    sizes, trace blocks...), so a resume with different parameters
    opens a different journal and never replays stale results.

    A journal is touched by one domain at a time, like a profile-cache
    handle. *)

type t

(** Journal directory default: [_hfuse_cache/journal]. *)
val default_dir : string

(** A journal that records nothing and answers nothing. *)
val disabled : t

(** Open (creating or resuming) the journal for [run_id].  Existing
    records are loaded into memory; subsequent records append. *)
val open_ : ?dir:string -> run_id:string -> unit -> t

val enabled : t -> bool

(** Content-hash a run identity from its defining parameters.  The
    run's [sim_fuel] and [trace_blocks] settings are always folded in:
    simulated outcomes depend on the fuel budget and on how many blocks
    were traced, so a journal written under one value of either must
    not be resumed under another. *)
val run_id :
  sim_fuel:int -> trace_blocks:int -> parts:string list -> unit -> string

(** Path of the journal file (empty when disabled). *)
val path : t -> string

(** Records loaded from a pre-existing journal at {!open_} time. *)
val loaded : t -> int

(** Checksum-failing records dropped while loading (torn tail). *)
val torn : t -> int

(** Candidate-time records, keyed by {!Profile_cache.key}. *)
val find_time : t -> key:string -> float option

val record_time : t -> key:string -> float -> unit

(** Measurement-replay records, keyed by {!Profile_cache.report_key}. *)
val find_report :
  t -> key:string -> (Gpusim.Timing.report * Gpusim.Timing.engine_stats) option

val record_report :
  t ->
  key:string ->
  Gpusim.Timing.report * Gpusim.Timing.engine_stats ->
  unit

(** Force buffered records to disk (records are flushed as written;
    this is a barrier for signal handlers). *)
val flush : t -> unit

(** Flush and close the journal file.  The handle stays queryable. *)
val close : t -> unit
