(** Runtime values of the functional interpreter.

    Integer values model the exact CUDA device widths: [Int]/[UInt] are
    32-bit patterns, [Long]/[ULong] 64-bit; all arithmetic wraps with the
    correct signedness (the crypto kernels depend on it).  [Float]s are
    rounded through IEEE binary32 after every operation. *)

type space = Global | Shared | Local_mem

type ptr = {
  space : space;
  buf : int;  (** buffer id within the space *)
  off : int;  (** byte offset *)
  elem : Cuda.Ctype.t;  (** element type: arithmetic stride, access width *)
}

type t =
  | Int of int32
  | UInt of int32
  | Long of int64
  | ULong of int64
  | Float of float  (** kept binary32-rounded *)
  | Double of float
  | Bool of bool
  | Ptr of ptr

exception Runtime_error of string

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Round through IEEE binary32. *)
val f32 : float -> float

val to_i64 : t -> int64
val to_int : t -> int
val to_float : t -> float
val truthy : t -> bool

(** C cast/assignment conversion (pointer reinterpretation included). *)
val convert : Cuda.Ctype.t -> t -> t

(** C binary operator with usual arithmetic conversions and pointer
    arithmetic.  @raise Runtime_error on division by zero or malformed
    operand combinations. *)
val binop : Cuda.Ast.binop -> t -> t -> t

val unop : Cuda.Ast.unop -> t -> t
val zero : Cuda.Ctype.t -> t
val pp : t Fmt.t
val equal : t -> t -> bool
