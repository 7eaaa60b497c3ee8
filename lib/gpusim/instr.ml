(* Dynamic instruction classes recorded by the interpreter and replayed
   by the timing model.

   One record per *warp* instruction (SIMT: 32 lanes issue together).
   Memory instructions carry the coalescing outcome — the number of
   32-byte memory transactions a global access decomposed into, or the
   bank-conflict serialisation degree of a shared access — because that
   is what determines how long the load/store unit is occupied. *)

type t =
  | Alu  (** integer / logic / comparison / conversion *)
  | Falu  (** fp32 arithmetic *)
  | Dalu  (** fp64 arithmetic *)
  | Sfu  (** division, sqrt, transcendental *)
  | Shfl  (** warp shuffle *)
  | Ld_global of int * int
      (** load: (L1-miss sectors, L1-hit sectors) after coalescing *)
  | St_global of int
  | Ld_shared of int  (** load, [n]-way bank conflict (1 = none) *)
  | St_shared of int
  | Atom_shared of int  (** shared atomic, [n]-way address serialisation *)
  | Atom_global of int
  | Ld_local  (** register-spill reload *)
  | St_local  (** register-spill store *)
  | Bar of int * int  (** bar.sync id, participating thread count *)
  | Branch  (** control-flow resolution *)

(* Compact encoding: traces run to millions of instructions, so they are
   stored as parallel int arrays rather than constructor lists. *)

let code : t -> int = function
  | Alu -> 0
  | Falu -> 1
  | Dalu -> 2
  | Sfu -> 3
  | Shfl -> 4
  | Ld_global _ -> 5
  | St_global _ -> 6
  | Ld_shared _ -> 7
  | St_shared _ -> 8
  | Atom_shared _ -> 9
  | Atom_global _ -> 10
  | Ld_local -> 11
  | St_local -> 12
  | Bar _ -> 13
  | Branch -> 14

let payload : t -> int = function
  | Ld_global (miss, hit) -> (miss lsl 10) lor hit
  | St_global n | Ld_shared n | St_shared n | Atom_shared n
  | Atom_global n ->
      n
  | Bar (id, count) -> (id lsl 20) lor count
  | _ -> 0

let decode (c : int) (p : int) : t =
  match c with
  | 0 -> Alu
  | 1 -> Falu
  | 2 -> Dalu
  | 3 -> Sfu
  | 4 -> Shfl
  | 5 -> Ld_global (p lsr 10, p land 1023)
  | 6 -> St_global p
  | 7 -> Ld_shared p
  | 8 -> St_shared p
  | 9 -> Atom_shared p
  | 10 -> Atom_global p
  | 11 -> Ld_local
  | 12 -> St_local
  | 13 -> Bar (p lsr 20, p land 0xFFFFF)
  | 14 -> Branch
  | c -> invalid_arg (Printf.sprintf "Instr.decode: bad code %d" c)

let pp ppf = function
  | Alu -> Fmt.string ppf "ALU"
  | Falu -> Fmt.string ppf "FALU"
  | Dalu -> Fmt.string ppf "DALU"
  | Sfu -> Fmt.string ppf "SFU"
  | Shfl -> Fmt.string ppf "SHFL"
  | Ld_global (m, h) -> Fmt.pf ppf "LDG(%dm+%dh)" m h
  | St_global n -> Fmt.pf ppf "STG(%d)" n
  | Ld_shared n -> Fmt.pf ppf "LDS(%d)" n
  | St_shared n -> Fmt.pf ppf "STS(%d)" n
  | Atom_shared n -> Fmt.pf ppf "ATOMS(%d)" n
  | Atom_global n -> Fmt.pf ppf "ATOMG(%d)" n
  | Ld_local -> Fmt.string ppf "LDL"
  | St_local -> Fmt.string ppf "STL"
  | Bar (id, n) -> Fmt.pf ppf "BAR(%d,%d)" id n
  | Branch -> Fmt.string ppf "BRA"
