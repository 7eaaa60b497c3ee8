(** Text renderings of the evaluation artifacts, in the shape the paper
    prints them ("X / Y" cells are 1080Ti / V100). *)

val figure7_to_string : Experiment.sweep list -> string
val figure8_to_string : Experiment.kernel_row list -> string
val figure9_to_string : Experiment.fused_row list -> string

(** Minimal JSON emitter for the machine-readable bench artifacts
    ([BENCH_figN.json]); floats are printed with the shortest
    round-tripping decimal (non-finite values become [null]). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val opt : ('a -> t) -> 'a option -> t
  val to_string : t -> string

  (** Compact single-line rendering (no trailing newline; raw newlines
      only ever appear escaped inside strings) — the daemon's
      newline-delimited wire framing.  {!of_string} reads both forms. *)
  val to_line : t -> string

  (** Parse the subset of JSON {!to_string} emits (sufficient for any
      output of this module; numbers become [Int] when they have no
      fraction or exponent).  Used by the bench regression gate to read
      committed baseline reports. *)
  val of_string : string -> (t, string) result

  (** [member k (Obj ...)] is the value bound to [k], if any. *)
  val member : string -> t -> t option

  (** Numeric coercion: [Int]s widen to float. *)
  val to_float_opt : t -> float option
end

(** Per-section, per-field sums of telemetry objects' integer leaves
    (a field holding an object of integers adds their total). *)
type telemetry_sums = (string * (string * int) list) list

val add_telemetry : telemetry_sums -> Json.t -> telemetry_sums

(** [telemetry_get t section field] — 0 when absent. *)
val telemetry_get : telemetry_sums -> string -> string -> int

(** A ledger section ([pool], [fault], [engine], [search], ...) as one
    object: its counters in declaration order (a dotted name nests
    under its group: [injected.worker_crash] under [injected]), then
    [gauges]. *)
val json_of_section :
  ?gauges:(string * Json.t) list -> Ledger.t -> string -> Json.t

(** A ledger's [trace_store] section plus current memory-tier occupancy
    ([mem_entries]/[mem_bytes] are sampled at render time). *)
val json_of_trace_store : Ledger.t -> Json.t

val json_of_cache : Profile_cache.t -> Json.t
val figure7_json : Experiment.sweep list -> Json.t
val figure8_json : Experiment.kernel_row list -> Json.t
val figure9_json : Experiment.fused_row list -> Json.t
