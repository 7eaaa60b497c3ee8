(** Per-warp dynamic instruction traces: growable parallel int arrays
    (traces run to millions of instructions). *)

type t = {
  mutable codes : int array;
  mutable payloads : int array;
  mutable len : int;
}

val create : ?capacity:int -> unit -> t
val length : t -> int
val push : t -> Instr.t -> unit
val get : t -> int -> Instr.t
val iter : (Instr.t -> unit) -> t -> unit
val fold : ('a -> Instr.t -> 'a) -> 'a -> t -> 'a

(** Histogram over instruction-class codes. *)
val mix : t -> int array

(** A block's traces: one per warp, in warp order. *)
type block = t array

val block_instructions : block -> int

(** Binary serialization of a [block array] — the payload format of
    the persistent trace store.  [encode_blocks] writes only the live
    [len] prefix of each trace (capacity slack never leaks), so
    [decode_blocks (encode_blocks bs)] rebuilds traces that replay and
    re-encode byte-identically.  [decode_blocks] answers [None] on any
    malformed input instead of raising or over-allocating; integrity
    (versioning, checksums) is the calling store's concern. *)

val encode_blocks : block array -> string
val decode_blocks : string -> block array option

(** Approximate in-memory footprint of a block array in bytes (live
    elements only) — the unit of the trace store's LRU bound. *)
val blocks_bytes : block array -> int
