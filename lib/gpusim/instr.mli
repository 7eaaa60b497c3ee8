(** Dynamic instruction classes recorded by the interpreter and replayed
    by the timing model — one record per warp instruction, with the
    memory-coalescing outcome attached (that is what determines pipe
    occupancy). *)

type t =
  | Alu
  | Falu
  | Dalu
  | Sfu
  | Shfl
  | Ld_global of int * int  (** (cache-miss sectors, cache-hit sectors) *)
  | St_global of int  (** 32-byte sectors *)
  | Ld_shared of int  (** bank-conflict degree (1 = none) *)
  | St_shared of int
  | Atom_shared of int  (** address-serialisation degree *)
  | Atom_global of int
  | Ld_local  (** register-spill reload *)
  | St_local
  | Bar of int * int  (** barrier id, participating thread count *)
  | Branch

(** Compact int encoding used by {!Trace}. *)
val code : t -> int

val payload : t -> int
val decode : int -> int -> t
val pp : t Fmt.t
