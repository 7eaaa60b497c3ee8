(* Byte-addressable simulated memories.

   Global memory is a set of named buffers allocated by the host harness;
   shared memory is one buffer per running block (allocated by
   {!Launch}).  Byte addressing (rather than typed cells) is essential:
   the corpus reinterprets buffers across types ([reinterpret_cast] of
   the histogram's [unsigned char my_smem[]] to [output_t*]), and the
   crypto kernels mix 32- and 64-bit views. *)

open Cuda

(* A buffer's bytes are built on first access: zero-filled, then
   written by the [init] given at [alloc].  Until then only its length
   exists, so a workload that is configured but never run costs
   nothing beyond its argument list. *)
type contents = Pending of (Bytes.t -> unit) | Built of Bytes.t

type buffer = { name : string; len : int; mutable contents : contents }

type t = { mutable buffers : buffer array; mutable n : int }

let create () = { buffers = [||]; n = 0 }

(** Allocate a global buffer of [count] elements, zero-filled and then
    written by [init] when first reached; returns a pointer to its
    start with the given element type.  Ids are assigned here, in
    allocation order. *)
let alloc ?(init = ignore) (t : t) ~(name : string) ~(elem : Ctype.t)
    ~(count : int) : Value.ptr =
  let buf = { name; len = count * Ctype.sizeof elem; contents = Pending init } in
  if t.n = Array.length t.buffers then begin
    let cap = max 8 (2 * Array.length t.buffers) in
    let a = Array.make cap buf in
    Array.blit t.buffers 0 a 0 t.n;
    t.buffers <- a
  end;
  t.buffers.(t.n) <- buf;
  t.n <- t.n + 1;
  { Value.space = Value.Global; buf = t.n - 1; off = 0; elem }

let build (b : buffer) : Bytes.t =
  match b.contents with
  | Built data -> data
  | Pending init ->
      let data = Bytes.make b.len '\000' in
      init data;
      b.contents <- Built data;
      data

let get (t : t) (id : int) : buffer =
  if id < 0 || id >= t.n then Value.fail "invalid buffer id %d" id;
  t.buffers.(id)

let buffer (t : t) (id : int) : Bytes.t = build (get t id)
let buffer_name (t : t) (id : int) : string = (get t id).name
let size_bytes (t : t) (id : int) : int = (get t id).len

(* ------------------------------------------------------------------ *)
(* Typed access to raw bytes                                            *)
(* ------------------------------------------------------------------ *)

let check data off width what =
  if off < 0 || off + width > Bytes.length data then
    Value.fail "out-of-bounds %s at byte offset %d (buffer is %d bytes)" what
      off (Bytes.length data)

(** Load a value of type [ty] at byte offset [off] of [data]. *)
let load_bytes (data : Bytes.t) (off : int) (ty : Ctype.t) : Value.t =
  check data off (Ctype.sizeof ty) "load";
  match ty with
  | Ctype.Bool -> Value.Bool (Bytes.get_uint8 data off <> 0)
  | Ctype.Char -> Value.Int (Int32.of_int (Bytes.get_int8 data off))
  | Ctype.UChar -> Value.UInt (Int32.of_int (Bytes.get_uint8 data off))
  | Ctype.Short -> Value.Int (Int32.of_int (Bytes.get_int16_le data off))
  | Ctype.UShort -> Value.UInt (Int32.of_int (Bytes.get_uint16_le data off))
  | Ctype.Int -> Value.Int (Bytes.get_int32_le data off)
  | Ctype.UInt -> Value.UInt (Bytes.get_int32_le data off)
  | Ctype.Long -> Value.Long (Bytes.get_int64_le data off)
  | Ctype.ULong -> Value.ULong (Bytes.get_int64_le data off)
  | Ctype.Float ->
      Value.Float (Int32.float_of_bits (Bytes.get_int32_le data off))
  | Ctype.Double ->
      Value.Double (Int64.float_of_bits (Bytes.get_int64_le data off))
  | Ctype.Ptr _ | Ctype.Array _ | Ctype.Void ->
      Value.fail "cannot load value of type %s from memory"
        (Ctype.to_string ty)

(** Store [v] (converted to [ty]) at byte offset [off] of [data]. *)
let store_bytes (data : Bytes.t) (off : int) (ty : Ctype.t) (v : Value.t) :
    unit =
  check data off (Ctype.sizeof ty) "store";
  let v = Value.convert ty v in
  match (ty, v) with
  | Ctype.Bool, Value.Bool b -> Bytes.set_uint8 data off (if b then 1 else 0)
  | Ctype.(Char | UChar), v ->
      Bytes.set_uint8 data off (Int64.to_int (Value.to_i64 v) land 0xFF)
  | Ctype.(Short | UShort), v ->
      Bytes.set_uint16_le data off (Int64.to_int (Value.to_i64 v) land 0xFFFF)
  | Ctype.Int, Value.Int x | Ctype.UInt, Value.UInt x ->
      Bytes.set_int32_le data off x
  | Ctype.Long, Value.Long x | Ctype.ULong, Value.ULong x ->
      Bytes.set_int64_le data off x
  | Ctype.Float, Value.Float x ->
      Bytes.set_int32_le data off (Int32.bits_of_float x)
  | Ctype.Double, Value.Double x ->
      Bytes.set_int64_le data off (Int64.bits_of_float x)
  | ty, _ ->
      Value.fail "cannot store value of type %s to memory"
        (Ctype.to_string ty)

(* ------------------------------------------------------------------ *)
(* Host-side convenience (filling and reading whole buffers)            *)
(* ------------------------------------------------------------------ *)

let write width ty wrap (data : Bytes.t) (off : int) xs =
  Array.iteri (fun i x -> store_bytes data (off + (width * i)) ty (wrap x)) xs

let float_cells = write 4 Ctype.Float (fun x -> Value.Float x)
let int32_cells = write 4 Ctype.Int (fun x -> Value.Int x)
let int64_cells = write 8 Ctype.ULong (fun x -> Value.ULong x)

let store_floats data (xs : float array) = float_cells data 0 xs
let store_int32s data (xs : int32 array) = int32_cells data 0 xs

let fill_floats (t : t) (p : Value.ptr) (xs : float array) : unit =
  float_cells (buffer t p.Value.buf) p.Value.off xs

let fill_int32s (t : t) (p : Value.ptr) (xs : int32 array) : unit =
  int32_cells (buffer t p.Value.buf) p.Value.off xs

let fill_int64s (t : t) (p : Value.ptr) (xs : int64 array) : unit =
  int64_cells (buffer t p.Value.buf) p.Value.off xs

let read_floats (t : t) (p : Value.ptr) (count : int) : float array =
  let data = buffer t p.Value.buf in
  Array.init count (fun i ->
      match load_bytes data (p.Value.off + (4 * i)) Ctype.Float with
      | Value.Float x -> x
      | _ -> assert false)

let read_int32s (t : t) (p : Value.ptr) (count : int) : int32 array =
  let data = buffer t p.Value.buf in
  Array.init count (fun i ->
      match load_bytes data (p.Value.off + (4 * i)) Ctype.Int with
      | Value.Int x -> x
      | _ -> assert false)

let read_int64s (t : t) (p : Value.ptr) (count : int) : int64 array =
  let data = buffer t p.Value.buf in
  Array.init count (fun i ->
      match load_bytes data (p.Value.off + (8 * i)) Ctype.ULong with
      | Value.ULong x -> x
      | _ -> assert false)

(** Snapshot all global buffers (for equivalence checks between native
    and fused executions). *)
let snapshot (t : t) : (string * Bytes.t) list =
  List.init t.n (fun i ->
      let b = t.buffers.(i) in
      (b.name, Bytes.copy (build b)))

let equal_snapshot (a : (string * Bytes.t) list)
    (b : (string * Bytes.t) list) : bool =
  List.length a = List.length b
  && List.for_all2
       (fun (na, da) (nb, db) -> String.equal na nb && Bytes.equal da db)
       a b
