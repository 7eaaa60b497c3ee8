(* Per-warp dynamic instruction traces: growable parallel int arrays. *)

type t = {
  mutable codes : int array;
  mutable payloads : int array;
  mutable len : int;
}

let create ?(capacity = 1024) () =
  {
    codes = Array.make capacity 0;
    payloads = Array.make capacity 0;
    len = 0;
  }

let length t = t.len

let grow t =
  let cap = max 16 (2 * Array.length t.codes) in
  let codes = Array.make cap 0 and payloads = Array.make cap 0 in
  Array.blit t.codes 0 codes 0 t.len;
  Array.blit t.payloads 0 payloads 0 t.len;
  t.codes <- codes;
  t.payloads <- payloads

let push (t : t) (i : Instr.t) : unit =
  if t.len = Array.length t.codes then grow t;
  t.codes.(t.len) <- Instr.code i;
  t.payloads.(t.len) <- Instr.payload i;
  t.len <- t.len + 1

let get (t : t) (i : int) : Instr.t =
  if i < 0 || i >= t.len then invalid_arg "Trace.get";
  Instr.decode t.codes.(i) t.payloads.(i)

let iter f t =
  for i = 0 to t.len - 1 do
    f (Instr.decode t.codes.(i) t.payloads.(i))
  done

let fold f acc t =
  let acc = ref acc in
  iter (fun i -> acc := f !acc i) t;
  !acc

(** Instruction-mix histogram: count per class code. *)
let mix (t : t) : int array =
  let h = Array.make 16 0 in
  for i = 0 to t.len - 1 do
    h.(t.codes.(i)) <- h.(t.codes.(i)) + 1
  done;
  h

(** A block's worth of traces: one per warp, in warp-id order. *)
type block = t array

let block_instructions (b : block) : int =
  Array.fold_left (fun acc t -> acc + t.len) 0 b

(* ------------------------------------------------------------------ *)
(* Binary serialization of [block array] — the on-disk payload of the
   persistent trace store (lib/profiler/trace_store.ml).  The layout
   is a flat sequence of zigzag-LEB128 varints: #blocks, then per
   block #warps, then per trace its length followed by [len] codes and
   [len] payloads.  Only [len] elements are written, so capacity slack
   never leaks into the encoding and a decoded block array re-encodes
   byte-identically.  Integrity (version, checksum) is the store's
   job; [decode_blocks] still refuses any malformed input with [None]
   rather than raising or over-allocating.                              *)
(* ------------------------------------------------------------------ *)

let add_varint (b : Buffer.t) (v : int) : unit =
  (* zigzag first: payloads may be negative (OCaml ints are 63-bit,
     so the sign lives in bit 62) *)
  let u = ref ((v lsl 1) lxor (v asr 62)) in
  let continue = ref true in
  while !continue do
    let byte = !u land 0x7f in
    u := !u lsr 7;
    if !u = 0 then begin
      Buffer.add_char b (Char.chr byte);
      continue := false
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let read_varint (s : string) (pos : int ref) : int =
  let u = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !pos >= String.length s || !shift > 62 then raise Exit;
    let byte = Char.code s.[!pos] in
    incr pos;
    u := !u lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then continue := false
  done;
  (!u lsr 1) lxor (- (!u land 1))

let encode_blocks (bs : block array) : string =
  let buf = Buffer.create 4096 in
  add_varint buf (Array.length bs);
  Array.iter
    (fun (b : block) ->
      add_varint buf (Array.length b);
      Array.iter
        (fun t ->
          add_varint buf t.len;
          for i = 0 to t.len - 1 do
            add_varint buf t.codes.(i)
          done;
          for i = 0 to t.len - 1 do
            add_varint buf t.payloads.(i)
          done)
        b)
    bs;
  Buffer.contents buf

let decode_blocks (s : string) : block array option =
  let pos = ref 0 in
  (* every varint is at least one byte, so any declared count larger
     than the bytes left is corrupt — checked before allocating *)
  let counted n = if n < 0 || n > String.length s - !pos then raise Exit in
  try
    let nb = read_varint s pos in
    counted nb;
    let blocks =
      Array.init nb (fun _ ->
          let nw = read_varint s pos in
          counted nw;
          Array.init nw (fun _ ->
              let len = read_varint s pos in
              counted len;
              let t =
                {
                  codes = Array.make (max 1 len) 0;
                  payloads = Array.make (max 1 len) 0;
                  len;
                }
              in
              for i = 0 to len - 1 do
                t.codes.(i) <- read_varint s pos
              done;
              for i = 0 to len - 1 do
                t.payloads.(i) <- read_varint s pos
              done;
              t))
    in
    if !pos <> String.length s then None else Some blocks
  with Exit -> None

(** Approximate resident size of a block array in bytes: two boxed int
    arrays per trace.  Counts [len], not capacity — the store copies
    traces tightly, and the bound should not depend on growth slack. *)
let blocks_bytes (bs : block array) : int =
  Array.fold_left
    (fun acc b ->
      Array.fold_left (fun acc t -> acc + (2 * 8 * t.len) + 64) acc b)
    0 bs
