(** Byte-addressable simulated memories.

    Global memory is a set of named buffers; byte addressing (not typed
    cells) is essential because the corpus reinterprets buffers across
    types and mixes 32/64-bit views. *)

(** A set of buffers whose bytes are built on first access.  A
    [Memory.t] with deferred buffers is owned by one domain at a time:
    building a buffer mutates the memory. *)
type t

val create : unit -> t

(** Allocate a buffer of [count] elements and return a pointer to its
    start.  The buffer id is assigned now, in allocation order; the
    bytes are not.  They are built the first time {!buffer},
    {!snapshot} or a [fill_*]/[read_*] helper reaches them: zero-filled,
    then passed once to [init] (default: left zero). *)
val alloc :
  ?init:(Bytes.t -> unit) ->
  t ->
  name:string ->
  elem:Cuda.Ctype.t ->
  count:int ->
  Value.ptr

val buffer : t -> int -> Bytes.t
val buffer_name : t -> int -> string

(** Length in bytes; does not build the buffer. *)
val size_bytes : t -> int -> int

(** [check data off width what] fails as a [what] ("load" or
    "store") of [width] bytes at [off] out of bounds of [data] does.
    @raise Value.Runtime_error when it is. *)
val check : Bytes.t -> int -> int -> string -> unit

(** Typed access at a byte offset; bounds-checked.
    @raise Value.Runtime_error on out-of-bounds or untypable access. *)
val load_bytes : Bytes.t -> int -> Cuda.Ctype.t -> Value.t

val store_bytes : Bytes.t -> int -> Cuda.Ctype.t -> Value.t -> unit

(** Write consecutive elements from byte 0 of raw bytes: the building
    blocks of an [alloc]'s [init]. *)
val store_floats : Bytes.t -> float array -> unit

val store_int32s : Bytes.t -> int32 array -> unit

(** Host-side helpers. *)
val fill_floats : t -> Value.ptr -> float array -> unit

val fill_int32s : t -> Value.ptr -> int32 array -> unit
val fill_int64s : t -> Value.ptr -> int64 array -> unit
val read_floats : t -> Value.ptr -> int -> float array
val read_int32s : t -> Value.ptr -> int -> int32 array
val read_int64s : t -> Value.ptr -> int -> int64 array

(** Snapshot all buffers (equivalence checks). *)
val snapshot : t -> (string * Bytes.t) list

val equal_snapshot : (string * Bytes.t) list -> (string * Bytes.t) list -> bool
