(** Identity of a resumable run.

    [--resume] names its run by a content hash of the run's parameters
    (figure, pairs, sizes, trace blocks...) and keeps what the run
    persists under [default_dir]: a run without a cache of its own
    profiles into the root [<default_dir>/<run_id>/]
    ({!Settings.resumable}), and a fleet shard journals its finished
    rows to [<default_dir>/<run_id>.rows].  A rerun with the same
    parameters finds both; a rerun with different parameters opens
    different ones.  Every cache and trace entry is keyed by content,
    so nothing persisted can answer for other inputs. *)

(** Resume directory: [_hfuse_cache/journal]. *)
val default_dir : string

(** Content-hash a run identity from its defining parameters.  The
    run's [sim_fuel] and [trace_blocks] settings are always folded in:
    simulated outcomes depend on the fuel budget and on how many blocks
    were traced, so a run under one value of either must not resume
    under another. *)
val run_id :
  sim_fuel:int -> trace_blocks:int -> parts:string list -> unit -> string
