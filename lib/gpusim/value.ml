(* Runtime values of the functional interpreter.

   Integer values model the exact CUDA device widths: [Int]/[UInt] are
   32-bit patterns (stored in [int32]), [Long]/[ULong] are 64-bit.  The
   crypto kernels depend on exact wrap-around and logical-shift
   semantics, so all arithmetic is done width- and signedness-correctly.
   [Float] values are rounded through an IEEE binary32 round-trip after
   every operation, matching device fp32 arithmetic on these kernels
   (no FMA contraction is modelled). *)

open Cuda

type space = Global | Shared | Local_mem

type ptr = {
  space : space;
  buf : int;  (** buffer id within the space *)
  off : int;  (** byte offset *)
  elem : Ctype.t;  (** element type for arithmetic and access width *)
}

type t =
  | Int of int32
  | UInt of int32
  | Long of int64
  | ULong of int64
  | Float of float  (** always binary32-rounded *)
  | Double of float
  | Bool of bool
  | Ptr of ptr

exception Runtime_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

let f32 (x : float) : float = Int32.float_of_bits (Int32.bits_of_float x)

(* ------------------------------------------------------------------ *)
(* Conversions                                                          *)
(* ------------------------------------------------------------------ *)

let to_i64 : t -> int64 = function
  | Int x -> Int64.of_int32 x
  | UInt x -> Int64.logand (Int64.of_int32 x) 0xFFFFFFFFL
  | Long x | ULong x -> x
  | Float x | Double x -> Int64.of_float x
  | Bool b -> if b then 1L else 0L
  | Ptr _ -> fail "pointer used as integer"

(* [Int64.to_int (to_i64 v)] and [Int64.to_int32 (to_i64 v)], without
   the [int64] round trip for 32-bit values *)
let to_int : t -> int = function
  | Int x -> Int32.to_int x
  | UInt x -> Int32.to_int x land 0xFFFFFFFF
  | Long x | ULong x -> Int64.to_int x
  | Bool b -> if b then 1 else 0
  | v -> Int64.to_int (to_i64 v)

let to_i32 : t -> int32 = function
  | Int x | UInt x -> x
  | v -> Int64.to_int32 (to_i64 v)

let to_float : t -> float = function
  | Int x -> Int32.to_float x
  | UInt x -> Int64.to_float (Int64.logand (Int64.of_int32 x) 0xFFFFFFFFL)
  | Long x -> Int64.to_float x
  | ULong x ->
      if Int64.compare x 0L >= 0 then Int64.to_float x
      else Int64.to_float x +. 18446744073709551616.0
  | Float x | Double x -> x
  | Bool b -> if b then 1.0 else 0.0
  | Ptr _ -> fail "pointer used as float"

let truthy : t -> bool = function
  | Int x | UInt x -> x <> 0l
  | Long x | ULong x -> x <> 0L
  | Float x | Double x -> x <> 0.0
  | Bool b -> b
  | Ptr _ -> true

(** Convert (as by C cast/assignment) to the given type. *)
let convert (ty : Ctype.t) (v : t) : t =
  match (ty, v) with
  (* same type: every payload is already in range (floats rounded) *)
  | Ctype.Int, Int _
  | Ctype.UInt, UInt _
  | Ctype.Long, Long _
  | Ctype.ULong, ULong _
  | Ctype.Float, Float _
  | Ctype.Double, Double _
  | Ctype.Bool, Bool _ ->
      v
  | Ctype.Int, UInt x -> Int x
  | Ctype.UInt, Int x -> UInt x
  | Ctype.Ptr elem, Ptr p -> Ptr { p with elem }
  | Ctype.Ptr _, _ -> fail "cannot convert non-pointer to pointer"
  | _, Ptr _ -> fail "cannot convert pointer to %s" (Ctype.to_string ty)
  | Ctype.Bool, v -> Bool (truthy v)
  | Ctype.(Char | UChar | Short | UShort | Int), (Float f | Double f) ->
      (* C float->int truncates toward zero *)
      let i = Int64.of_float (Float.of_int (int_of_float f)) in
      let i32 = Int64.to_int32 i in
      (match ty with
      | Ctype.Char -> Int (Int32.of_int (Int32.to_int i32 land 0xFF))
      | Ctype.UChar -> UInt (Int32.of_int (Int32.to_int i32 land 0xFF))
      | Ctype.Short -> Int (Int32.of_int (Int32.to_int i32 land 0xFFFF))
      | Ctype.UShort -> UInt (Int32.of_int (Int32.to_int i32 land 0xFFFF))
      | _ -> Int i32)
  | Ctype.UInt, (Float f | Double f) -> UInt (Int64.to_int32 (Int64.of_float f))
  | Ctype.Long, (Float f | Double f) -> Long (Int64.of_float f)
  | Ctype.ULong, (Float f | Double f) -> ULong (Int64.of_float f)
  | Ctype.Float, v -> Float (f32 (to_float v))
  | Ctype.Double, v -> Double (to_float v)
  | Ctype.Char, v ->
      let b = Int64.to_int (to_i64 v) land 0xFF in
      Int (Int32.of_int (if b >= 0x80 then b - 0x100 else b))
  | Ctype.UChar, v -> UInt (Int32.of_int (Int64.to_int (to_i64 v) land 0xFF))
  | Ctype.Short, v ->
      let b = Int64.to_int (to_i64 v) land 0xFFFF in
      Int (Int32.of_int (if b >= 0x8000 then b - 0x10000 else b))
  | Ctype.UShort, v ->
      UInt (Int32.of_int (Int64.to_int (to_i64 v) land 0xFFFF))
  | Ctype.Int, v -> Int (to_i32 v)
  | Ctype.UInt, v -> UInt (to_i32 v)
  | Ctype.Long, v -> Long (to_i64 v)
  | Ctype.ULong, v -> ULong (to_i64 v)
  | Ctype.(Void | Array _), _ ->
      fail "cannot convert to %s" (Ctype.to_string ty)

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                           *)
(* ------------------------------------------------------------------ *)

let u64_lt a b = Int64.unsigned_compare a b < 0
let vtrue = Bool true
let vfalse = Bool false
let of_bool c = if c then vtrue else vfalse
let w32 unsigned v = if unsigned then UInt v else Int v
let w64 unsigned v = if unsigned then ULong v else Long v
let wfloat single v = if single then Float (f32 v) else Double v

(* One operator table per class of the usual arithmetic conversions,
   over raw payloads: 32-bit and 64-bit integers of either signedness,
   and binary32/binary64 floats. *)

let int32_op (op : Ast.binop) ~unsigned (x : int32) (y : int32) : t =
  match op with
  | Ast.Add -> w32 unsigned (Int32.add x y)
  | Ast.Sub -> w32 unsigned (Int32.sub x y)
  | Ast.Mul -> w32 unsigned (Int32.mul x y)
  | Ast.Div ->
      if y = 0l then fail "integer division by zero";
      w32 unsigned (if unsigned then Int32.unsigned_div x y else Int32.div x y)
  | Ast.Mod ->
      if y = 0l then fail "integer modulo by zero";
      w32 unsigned (if unsigned then Int32.unsigned_rem x y else Int32.rem x y)
  | Ast.Band -> w32 unsigned (Int32.logand x y)
  | Ast.Bor -> w32 unsigned (Int32.logor x y)
  | Ast.Bxor -> w32 unsigned (Int32.logxor x y)
  | Ast.Shl -> w32 unsigned (Int32.shift_left x (Int32.to_int y land 31))
  | Ast.Shr ->
      w32 unsigned
        (if unsigned then Int32.shift_right_logical x (Int32.to_int y land 31)
         else Int32.shift_right x (Int32.to_int y land 31))
  | Ast.Eq -> of_bool (Int32.equal x y)
  | Ast.Ne -> of_bool (not (Int32.equal x y))
  | Ast.Lt ->
      of_bool (if unsigned then Int32.unsigned_compare x y < 0 else x < y)
  | Ast.Le ->
      of_bool (if unsigned then Int32.unsigned_compare x y <= 0 else x <= y)
  | Ast.Gt ->
      of_bool (if unsigned then Int32.unsigned_compare x y > 0 else x > y)
  | Ast.Ge ->
      of_bool (if unsigned then Int32.unsigned_compare x y >= 0 else x >= y)
  | Ast.Land -> of_bool (x <> 0l && y <> 0l)
  | Ast.Lor -> of_bool (x <> 0l || y <> 0l)

let int64_op (op : Ast.binop) ~unsigned (x : int64) (y : int64) : t =
  match op with
  | Ast.Add -> w64 unsigned (Int64.add x y)
  | Ast.Sub -> w64 unsigned (Int64.sub x y)
  | Ast.Mul -> w64 unsigned (Int64.mul x y)
  | Ast.Div ->
      if y = 0L then fail "integer division by zero";
      w64 unsigned (if unsigned then Int64.unsigned_div x y else Int64.div x y)
  | Ast.Mod ->
      if y = 0L then fail "integer modulo by zero";
      w64 unsigned (if unsigned then Int64.unsigned_rem x y else Int64.rem x y)
  | Ast.Band -> w64 unsigned (Int64.logand x y)
  | Ast.Bor -> w64 unsigned (Int64.logor x y)
  | Ast.Bxor -> w64 unsigned (Int64.logxor x y)
  | Ast.Shl -> w64 unsigned (Int64.shift_left x (Int64.to_int y land 63))
  | Ast.Shr ->
      w64 unsigned
        (if unsigned then Int64.shift_right_logical x (Int64.to_int y land 63)
         else Int64.shift_right x (Int64.to_int y land 63))
  | Ast.Eq -> of_bool (Int64.equal x y)
  | Ast.Ne -> of_bool (not (Int64.equal x y))
  | Ast.Lt -> of_bool (if unsigned then u64_lt x y else x < y)
  | Ast.Le -> of_bool (if unsigned then not (u64_lt y x) else x <= y)
  | Ast.Gt -> of_bool (if unsigned then u64_lt y x else x > y)
  | Ast.Ge -> of_bool (if unsigned then not (u64_lt x y) else x >= y)
  | Ast.Land -> of_bool (x <> 0L && y <> 0L)
  | Ast.Lor -> of_bool (x <> 0L || y <> 0L)

let float_op (op : Ast.binop) ~single (x : float) (y : float) : t =
  match op with
  | Ast.Add -> wfloat single (x +. y)
  | Ast.Sub -> wfloat single (x -. y)
  | Ast.Mul -> wfloat single (x *. y)
  | Ast.Div -> wfloat single (x /. y)
  | Ast.Eq -> of_bool (x = y)
  | Ast.Ne -> of_bool (x <> y)
  | Ast.Lt -> of_bool (x < y)
  | Ast.Le -> of_bool (x <= y)
  | Ast.Gt -> of_bool (x > y)
  | Ast.Ge -> of_bool (x >= y)
  | Ast.Land -> of_bool (x <> 0. && y <> 0.)
  | Ast.Lor -> of_bool (x <> 0. || y <> 0.)
  | _ -> fail "invalid float operator"

(* Shifts take the type of the promoted left operand. *)
let shift (op : Ast.binop) (a : t) (b : t) : t =
  match a with
  | Int _ | Bool _ -> int32_op op ~unsigned:false (to_i32 a) (to_i32 b)
  | UInt x -> int32_op op ~unsigned:true x (to_i32 b)
  | Long x -> int64_op op ~unsigned:false x (to_i64 b)
  | ULong x -> int64_op op ~unsigned:true x (to_i64 b)
  | Float _ | Double _ | Ptr _ -> invalid_arg "Ctype.rank: not an integer type"

(* Any other operand pair: the usual arithmetic conversions, whose
   result type is the larger of the two in the order Int (and Bool) <
   UInt < Long < ULong < Float < Double.  A pointer joins only with a
   float type, where it then fails as a float. *)
let mixed (op : Ast.binop) (a : t) (b : t) : t =
  match (a, b) with
  | Double _, _ | _, Double _ ->
      float_op op ~single:false (to_float a) (to_float b)
  | Float _, _ | _, Float _ -> float_op op ~single:true (to_float a) (to_float b)
  | Ptr _, _ | _, Ptr _ ->
      invalid_arg "Ctype.arith_join: non-arithmetic operand"
  | ULong _, _ | _, ULong _ -> int64_op op ~unsigned:true (to_i64 a) (to_i64 b)
  | Long _, _ | _, Long _ -> int64_op op ~unsigned:false (to_i64 a) (to_i64 b)
  | UInt _, _ | _, UInt _ -> int32_op op ~unsigned:true (to_i32 a) (to_i32 b)
  | _ -> int32_op op ~unsigned:false (to_i32 a) (to_i32 b)

(** Apply a C binary operator with usual arithmetic conversions. *)
let binop (op : Ast.binop) (a : t) (b : t) : t =
  match (op, a, b) with
  (* pointer arithmetic and comparison *)
  | Ast.Add, Ptr p, i | Ast.Add, i, Ptr p ->
      Ptr { p with off = p.off + (to_int i * Ctype.sizeof p.elem) }
  | Ast.Sub, Ptr p, i when not (match i with Ptr _ -> true | _ -> false) ->
      Ptr { p with off = p.off - (to_int i * Ctype.sizeof p.elem) }
  | Ast.Sub, Ptr p, Ptr q ->
      if p.space <> q.space || p.buf <> q.buf then
        fail "subtraction of pointers into different buffers";
      Int (Int32.of_int ((p.off - q.off) / Ctype.sizeof p.elem))
  | (Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), Ptr p, Ptr q ->
      let c = compare (p.space, p.buf, p.off) (q.space, q.buf, q.off) in
      of_bool
        (match op with
        | Ast.Eq -> c = 0
        | Ast.Ne -> c <> 0
        | Ast.Lt -> c < 0
        | Ast.Le -> c <= 0
        | Ast.Gt -> c > 0
        | _ -> c >= 0)
  | (Ast.Shl | Ast.Shr), _, _ -> shift op a b
  (* same-class operands: the payloads as they are *)
  | _, Int x, Int y -> int32_op op ~unsigned:false x y
  | _, (Int x | UInt x), (Int y | UInt y) -> int32_op op ~unsigned:true x y
  | _, Float x, Float y -> float_op op ~single:true x y
  | _, Long x, Long y -> int64_op op ~unsigned:false x y
  | _, (Long x | ULong x), (Long y | ULong y) -> int64_op op ~unsigned:true x y
  | _, Double x, Double y -> float_op op ~single:false x y
  | _ -> mixed op a b

let unop (op : Ast.unop) (v : t) : t =
  match (op, v) with
  | Ast.Lnot, v -> of_bool (not (truthy v))
  | Ast.Neg, Float x -> Float (f32 (-.x))
  | Ast.Neg, Double x -> Double (-.x)
  | Ast.Neg, Int x -> Int (Int32.neg x)
  | Ast.Neg, UInt x -> UInt (Int32.neg x)
  | Ast.Neg, Long x -> Long (Int64.neg x)
  | Ast.Neg, ULong x -> ULong (Int64.neg x)
  | Ast.Neg, Bool b -> Int (if b then -1l else 0l)
  | Ast.Bnot, Int x -> Int (Int32.lognot x)
  | Ast.Bnot, UInt x -> UInt (Int32.lognot x)
  | Ast.Bnot, Long x -> Long (Int64.lognot x)
  | Ast.Bnot, ULong x -> ULong (Int64.lognot x)
  | Ast.Bnot, Bool b -> Int (if b then -2l else -1l)
  | Ast.Neg, Ptr _ | Ast.Bnot, (Ptr _ | Float _ | Double _) ->
      fail "invalid unary operand"

(** Default (zero) value of a type. *)
let zero (ty : Ctype.t) : t =
  match ty with
  | Ctype.Bool -> Bool false
  | Ctype.(Char | Short | Int) -> Int 0l
  | Ctype.(UChar | UShort | UInt) -> UInt 0l
  | Ctype.Long -> Long 0L
  | Ctype.ULong -> ULong 0L
  | Ctype.Float -> Float 0.0
  | Ctype.Double -> Double 0.0
  | t -> fail "no zero value for type %s" (Ctype.to_string t)

let pp ppf = function
  | Int x -> Fmt.pf ppf "%ld" x
  | UInt x -> Fmt.pf ppf "%luu" x
  | Long x -> Fmt.pf ppf "%Ldll" x
  | ULong x -> Fmt.pf ppf "%Luull" x
  | Float x -> Fmt.pf ppf "%gf" x
  | Double x -> Fmt.pf ppf "%g" x
  | Bool b -> Fmt.bool ppf b
  | Ptr p ->
      Fmt.pf ppf "%s@%d+%d"
        (match p.space with
        | Global -> "glob"
        | Shared -> "smem"
        | Local_mem -> "local")
        p.buf p.off

let equal (a : t) (b : t) = a = b
