(* Lock-step SIMT interpreter for the CUDA subset.

   Warps (32 lanes) execute statements together under an active-lane
   mask; divergent branches serialise both paths, loops iterate while any
   lane remains active, and [break]/[continue]/[return] are tracked as
   per-lane mask outcomes — the reconvergence-stack semantics of real
   SIMT hardware, expressed structurally.

   Two things happen at once during execution:
   - the *functional* result: values computed into simulated global /
     shared memory (used by the equivalence tests and by the host
     reference checks), and
   - the *dynamic trace*: one {!Instr.t} per warp instruction, with
     memory-coalescing and bank-conflict outcomes, consumed by
     {!Timing}.

   Barriers ([__syncthreads] and the partial [bar.sync id, n]) suspend
   the executing warp via an OCaml effect; the per-block scheduler in
   {!Launch} counts arrivals and resumes waiters once [n] threads have
   arrived — the PTX arrival-counter semantics the fused kernels rely
   on.  A barrier that can never be satisfied (e.g. [__syncthreads]
   surviving in a fused kernel) deadlocks, and the scheduler reports it
   as such.

   Resolve once.  {!resolve} walks the kernel body once per launch and
   does every name lookup there: each distinct local or parameter name
   gets one slot (so the warp's environment stays flat: a redeclaration
   does not re-initialise, and the last executed declaration's type
   governs stores), shared arrays become their layout pointers, literals
   become prebuilt lanes, and intrinsic calls become a variant.  A warp
   then runs the resolved tree with no string in sight.

   Typed lanes.  A value is a lane vector whose class is fixed for the
   whole vector: signed or unsigned 32-bit integers and booleans live
   unboxed in an [int array] (signed sign-extended, unsigned in
   [0, 2^32)), floats and doubles flat in a [float array] (floats kept
   binary32-rounded).  Each operation chooses its code by the classes
   of its operands once per warp instruction, never per lane, and
   computes exactly what {!Value} computes on the same payloads.  64-bit
   integers, pointers and vectors whose lanes differ in type (a ternary
   over [int] and [unsigned] branches, a register declared with two
   types) take one boxed path, [V], which runs {!Value} per lane.  Loads
   and stores of 32-bit and float elements move directly between
   [Bytes] and the typed arrays.

   Lanes and tables.  An evaluation returns lanes that no one writes to
   afterwards, except a register's own slot vector, which stores
   overwrite in place (so a post-increment copies the old value out
   before its store).  That makes literal, shared-array and builtin
   lanes safely shared.  An inactive lane of a computed vector is read
   only by a shuffle, which takes the value the per-lane interpreter
   left there from the resolved node ([filler]).  The L1 model and the
   table of the sectors of one global access are per block
   ({!block_tables}), shared by its warps; the table is emptied before
   each use, and only traced blocks size an L1. *)

open Cuda

exception Exec_error of string

(** Fuel watchdog trip: a warp burned through its per-launch loop fuel.
    Structured (not an [Exec_error] string) so {!Launch} can attach the
    launch context and report a {!Launch.Sim_timeout} instead of
    hanging a profiling worker on a runaway kernel. *)
exception Fuel_exhausted

let fail fmt = Fmt.kstr (fun s -> raise (Exec_error s)) fmt

(** Raised by [goto]; caught at the top level of the kernel body where
    labels live. *)
exception Goto_exn of string

(** Performed when a warp reaches a barrier: (barrier id, thread count,
    warp's live thread count). *)
type _ Effect.t +=
  | Barrier_eff : int * int * int -> unit Effect.t

(** A warp's values, one per lane, in one representation per class. *)
type lanes =
  | I of int array  (** [int], [char], [short]: sign-extended 32-bit *)
  | U of int array  (** [unsigned], [unsigned char/short]: in [0, 2^32) *)
  | B of int array  (** [bool]: 0 or 1 *)
  | F of float array  (** [float]: binary32-rounded *)
  | D of float array  (** [double] *)
  | V of Value.t array  (** 64-bit, pointers, or lanes of differing type *)

(* A slot whose declaration has not executed yet. *)
let unbound = V [||]
let vzero = Value.Int 0l
let mask32 = 0xFFFF_FFFF
let dummy_ptr = { Value.space = Value.Shared; buf = 0; off = 0; elem = Ctype.Int }
let[@inline] sext32 x = (x lsl 31) asr 31

(* {!Value.f32}, here so that it stays unboxed in the lane loops *)
let[@inline] f32 (x : float) : float = Int32.float_of_bits (Int32.bits_of_float x)

(** A per-block model of the SM's sectored L1 data cache: FIFO over
    32-byte sectors.  Shared by all warps of a block; global loads that
    hit avoid the DRAM latency and bandwidth charge in the timing
    model. *)
type l1_cache = {
  l1_table : (int, unit) Hashtbl.t;  (** key: buf * 2^24 + sector *)
  l1_fifo : int Queue.t;
  l1_cap : int;  (** capacity in sectors; <= 0 disables the cache *)
}

let l1_create ~sectors =
  {
    l1_table = Hashtbl.create (if sectors > 0 then 1024 else 1);
    l1_fifo = Queue.create ();
    l1_cap = sectors;
  }

let l1_key buf sector = (buf lsl 24) lor (sector land 0xFFFFFF)

(** [true] when the sector is already resident; inserts it otherwise. *)
let l1_probe (c : l1_cache) ~buf ~sector : bool =
  if c.l1_cap <= 0 then false
  else begin
    let key = l1_key buf sector in
    if Hashtbl.mem c.l1_table key then true
    else begin
      Hashtbl.replace c.l1_table key ();
      Queue.add key c.l1_fifo;
      if Queue.length c.l1_fifo > c.l1_cap then begin
        let victim = Queue.pop c.l1_fifo in
        Hashtbl.remove c.l1_table victim
      end;
      false
    end
  end

(** Per-block tables, shared by the block's warps (they run one at a
    time and never yield inside an access): the L1 model and the
    sectors of one global access, whose iteration order is the order
    the L1 is probed in.  [segs] is emptied with [Hashtbl.clear] before
    each use and holds at most one key per lane, so its 16 buckets
    never resize and it iterates exactly as a fresh table would. *)
type block_tables = {
  l1 : l1_cache;
  segs : (int * int, unit) Hashtbl.t;  (** (buf, sector) of one access *)
}

let block_tables ~l1_sectors =
  { l1 = l1_create ~sectors:l1_sectors; segs = Hashtbl.create 16 }

(* ------------------------------------------------------------------ *)
(* The resolved kernel                                                  *)
(* ------------------------------------------------------------------ *)

(** The memory lvalue of a warp access: lane [l] addresses byte
    [offs.(l)] of the space and buffer of [ptrs.(l)], an element of
    type [ptrs.(l).elem].  [one] is the pointer when every active lane
    holds the same one (a parameter's, a shared array's). *)
type lmem = { ptrs : Value.ptr array; offs : int array; one : Value.ptr option }

type shfl = Shfl_xor | Shfl_down | Shfl_idx
type float_fn = Fabs | Sqrt | Rsqrt | Exp | Log | Floor | Ceil | Round
type atomic = Atomic_add | Atomic_max | Atomic_min | Atomic_exch

type rexpr =
  | Const of lanes  (** a literal's lanes, shared by every warp *)
  | Reg of int * string * lanes option
      (** slot, name, and the shared array's pointer lanes when the name
          is also one (read when the slot is unbound) *)
  | Builtin of int
  | Unop of Ast.unop * rexpr
  | Land of rexpr * rexpr
  | Lor of rexpr * rexpr
  | Binop of Ast.binop * rexpr * rexpr
  | Assign of rlval * rexpr
  | Op_assign of Ast.binop * rlval * rexpr
  | Incdec of bool * Ast.binop * rlval * lanes
      (** pre?, [Add] or [Sub], the lanes of [1] *)
  | Ternary of rexpr * rexpr * rexpr
  | Load of rlval
  | Addr_of of rlval
  | Cast of Ctype.t * rexpr
  | Min_max of Ast.binop * rexpr * rexpr  (** [Lt] for min, [Gt] for max *)
  | Fmin_max of bool * rexpr * rexpr  (** fminf? *)
  | Float_fn of float_fn * rexpr
  | Get_msb of rexpr
  | Rot32 of bool * rexpr * rexpr  (** rotate left? *)
  | Rot64 of bool * rexpr * rexpr
  | Shfl of shfl * rexpr * rexpr * Value.t option
      (** the operand's inactive-lane value, [None] when all its lanes
          are real (a register, a literal, a builtin) *)
  | Atomic of atomic * rlval * rexpr
  | Atomic_cas of rlval * rexpr * rexpr
  | Ballot of rexpr
  | Alu_nop  (** [__syncwarp], fences: one ALU slot, value 0 *)
  | Raise of exn  (** a malformed call, raised when reached *)

and rlval =
  | L_reg of int * string
  | L_mem of lmem  (** a shared array *)
  | L_index of rexpr * rexpr * Ast.expr
  | L_deref of rexpr
  | L_bad of Ast.expr

type rdecl = { slot : int; name : string; ty : Ctype.t; init : rexpr option }

type rstmt =
  | S_nop
  | S_label of string
  | S_decl of rdecl
  | S_expr of rexpr
  | S_if of rexpr * rstmt list * rstmt list
  | S_loop of rexpr option * rexpr option * rstmt list
      (** condition, step, body *)
  | S_do_while of rstmt list * rexpr
  | S_return of rexpr option
  | S_break
  | S_continue
  | S_sync
  | S_bar of int * int
  | S_goto of string
  | S_block of rstmt list

type kernel = {
  body : rstmt list;
  nslots : int;
  params : (int * Ctype.t) list;  (** each parameter's slot and type *)
}

let builtin_slot : Ast.builtin -> int = function
  | Ast.Thread_idx Ast.X -> 0
  | Ast.Thread_idx Ast.Y -> 1
  | Ast.Thread_idx Ast.Z -> 2
  | Ast.Block_idx Ast.X -> 3
  | Ast.Block_idx Ast.Y -> 4
  | Ast.Block_idx Ast.Z -> 5
  | Ast.Block_dim Ast.X -> 6
  | Ast.Block_dim Ast.Y -> 7
  | Ast.Block_dim Ast.Z -> 8
  | Ast.Grid_dim Ast.X -> 9
  | Ast.Grid_dim Ast.Y -> 10
  | Ast.Grid_dim Ast.Z -> 11

(** Lanes all holding [v]. *)
let lanes_of_value n (v : Value.t) : lanes =
  match v with
  | Value.Int x -> I (Array.make n (Int32.to_int x))
  | Value.UInt x -> U (Array.make n (Int32.to_int x land mask32))
  | Value.Bool b -> B (Array.make n (Bool.to_int b))
  | Value.Float x -> F (Array.make n x)
  | Value.Double x -> D (Array.make n x)
  | v -> V (Array.make n v)

let unary_float = function
  | "fabsf" -> Some Fabs
  | "sqrtf" -> Some Sqrt
  | "rsqrtf" -> Some Rsqrt
  | "expf" -> Some Exp
  | "logf" -> Some Log
  | "floorf" -> Some Floor
  | "ceilf" -> Some Ceil
  | "roundf" -> Some Round
  | _ -> None

(** Resolve a kernel body once for a launch: names to slots, shared
    arrays to their [layout] pointers, literals to lanes, intrinsics to
    variants. *)
let resolve ~warp_size:n ~(layout : (string, int * Ctype.t) Hashtbl.t)
    (fn : Ast.fn) : kernel =
  let slots = Hashtbl.create 32 in
  let slot x =
    match Hashtbl.find_opt slots x with
    | Some i -> i
    | None ->
        let i = Hashtbl.length slots in
        Hashtbl.add slots x i;
        i
  in
  let params = List.map (fun (p : Ast.param) -> (slot p.p_name, p.p_type)) fn.f_params in
  let shared_ptr x =
    Option.map
      (fun (off, elem) -> { Value.space = Value.Shared; buf = 0; off; elem })
      (Hashtbl.find_opt layout x)
  in
  let is_reg = function Ast.Var x -> shared_ptr x = None | _ -> false in
  (* what the per-lane interpreter left in an inactive lane of the
     expression's result *)
  let rec filler (e : Ast.expr) : Value.t option =
    match e with
    | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ | Ast.Var _
    | Ast.Builtin _ ->
        None
    | Ast.Binop ((Ast.Land | Ast.Lor), _, _) -> Some (Value.Bool false)
    | Ast.Assign (lhs, rhs) ->
        (* a register store yields the register, a memory store its
           right-hand side *)
        if is_reg lhs then None else filler rhs
    | Ast.Op_assign (_, lv, _) | Ast.Incdec { lval = lv; _ } ->
        if is_reg lv then None else Some vzero
    | Ast.Addr_of _ ->
        Some (Value.Ptr dummy_ptr)
    | Ast.Call (("fminf" | "fmaxf"), _) -> Some (Value.Float 0.)
    | Ast.Call (f, _) when Option.is_some (unary_float f) -> Some (Value.Float 0.)
    | Ast.Call (("rotr32" | "rotl32"), _) -> Some (Value.UInt 0l)
    | Ast.Call (("rotr64" | "rotl64"), _) -> Some (Value.ULong 0L)
    | Ast.Call (("__ballot_sync" | "__syncwarp" | "__threadfence"
                | "__threadfence_block"), _) ->
        None
    | _ -> Some vzero
  in
  let error fmt = Fmt.kstr (fun s -> Raise (Exec_error s)) fmt in
  let one = I (Array.make n 1) in
  (* a post-increment whose value is discarded is a pre-increment *)
  let discard = function
    | Ast.Incdec r -> Ast.Incdec { r with pre = true }
    | e -> e
  in
  let rec expr (e : Ast.expr) : rexpr =
    match e with
    | Ast.Int_lit (v, ty) ->
        Const
          (lanes_of_value n
             (match ty with
             | Ctype.UInt -> Value.UInt (Int64.to_int32 v)
             | Ctype.Long -> Value.Long v
             | Ctype.ULong -> Value.ULong v
             | _ -> Value.Int (Int64.to_int32 v)))
    | Ast.Float_lit (v, ty) ->
        Const
          (if ty = Ctype.Float then F (Array.make n (Value.f32 v))
           else D (Array.make n v))
    | Ast.Bool_lit b -> Const (B (Array.make n (Bool.to_int b)))
    | Ast.Var x ->
        Reg
          ( slot x,
            x,
            Option.map (fun p -> V (Array.make n (Value.Ptr p))) (shared_ptr x) )
    | Ast.Builtin b -> Builtin (builtin_slot b)
    | Ast.Unop (op, a) -> Unop (op, expr a)
    | Ast.Binop (Ast.Land, a, b) -> Land (expr a, expr b)
    | Ast.Binop (Ast.Lor, a, b) -> Lor (expr a, expr b)
    | Ast.Binop (op, a, b) -> Binop (op, expr a, expr b)
    | Ast.Assign (lhs, rhs) -> Assign (lval lhs, expr rhs)
    | Ast.Op_assign (op, lhs, rhs) -> Op_assign (op, lval lhs, expr rhs)
    | Ast.Incdec { pre; inc; lval = lv } ->
        Incdec (pre, (if inc then Ast.Add else Ast.Sub), lval lv, one)
    | Ast.Ternary (c, a, b) -> Ternary (expr c, expr a, expr b)
    | Ast.Call (f, args) -> call f args
    | Ast.Index _ | Ast.Deref _ -> Load (lval e)
    | Ast.Addr_of lhs -> Addr_of (lval lhs)
    | Ast.Cast (ty, a) -> Cast (ty, expr a)
  and lval (e : Ast.expr) : rlval =
    match e with
    | Ast.Var x -> (
        match shared_ptr x with
        | Some p ->
            L_mem
              { ptrs = Array.make n p; offs = Array.make n p.Value.off; one = Some p }
        | None -> L_reg (slot x, x))
    | Ast.Index (base, idx) -> L_index (expr base, expr idx, e)
    | Ast.Deref (Ast.Addr_of inner) -> (
        (* [*&m] is [m] for a memory lvalue *)
        match lval inner with
        | L_reg _ as r -> L_deref (Addr_of r)
        | m -> m)
    | Ast.Deref a -> L_deref (expr a)
    | e -> L_bad e
  and call f args : rexpr =
    match (f, args) with
    | ("min" | "max"), [ a; b ] ->
        Min_max ((if f = "min" then Ast.Lt else Ast.Gt), expr a, expr b)
    | ("fminf" | "fmaxf"), [ a; b ] -> Fmin_max (f = "fminf", expr a, expr b)
    | ("min" | "max" | "fminf" | "fmaxf" | "rotr32" | "rotl32" | "rotr64"
      | "rotl64" | "atomicAdd" | "atomicMax" | "atomicMin" | "atomicExch"), _
      when List.length args <> 2 ->
        error "%s expects 2 arguments" f
    | _ when Option.is_some (unary_float f) -> (
        match (unary_float f, args) with
        | Some fn, [ a ] -> Float_fn (fn, expr a)
        | _ -> error "%s expects 1 argument" f)
    | "getMSB", [ a ] -> Get_msb (expr a)
    | "getMSB", _ -> error "getMSB expects 1 argument"
    | ("rotr32" | "rotl32"), [ a; b ] -> Rot32 (f = "rotl32", expr a, expr b)
    | ("rotr64" | "rotl64"), [ a; b ] -> Rot64 (f = "rotl64", expr a, expr b)
    | ( ("WARP_SHFL_XOR" | "WARP_SHFL_DOWN" | "__shfl_xor_sync"
        | "__shfl_down_sync" | "__shfl_sync"),
        _ ) -> (
        (* the __sync variants carry a leading member mask, dropped *)
        match
          match f with
          | "__shfl_xor_sync" | "__shfl_down_sync" | "__shfl_sync" ->
              List.tl args
          | _ -> args
        with
        | v :: delta :: _rest ->
            let kind =
              match f with
              | "WARP_SHFL_XOR" | "__shfl_xor_sync" -> Shfl_xor
              | "WARP_SHFL_DOWN" | "__shfl_down_sync" -> Shfl_down
              | _ -> Shfl_idx
            in
            Shfl (kind, expr v, expr delta, filler v)
        | _ -> error "%s expects at least 2 value arguments" f
        | exception e -> Raise e)
    | ("atomicAdd" | "atomicMax" | "atomicMin" | "atomicExch"), [ addr; v ] ->
        let kind =
          match f with
          | "atomicAdd" -> Atomic_add
          | "atomicMax" -> Atomic_max
          | "atomicMin" -> Atomic_min
          | _ -> Atomic_exch
        in
        Atomic (kind, lval (Ast.Deref addr), expr v)
    | "atomicCAS", [ addr; cmp; v ] ->
        Atomic_cas (lval (Ast.Deref addr), expr cmp, expr v)
    | "atomicCAS", _ -> error "atomicCAS expects 3 arguments"
    | "__ballot_sync", [ _m; pred ] -> Ballot (expr pred)
    | "__ballot_sync", _ -> error "__ballot_sync expects 2 arguments"
    | ("__syncwarp" | "__threadfence" | "__threadfence_block"), _ -> Alu_nop
    | f, _ -> error "call to unknown or uninlined function %s" f
  in
  let rec stmts ss = List.map stmt ss
  and decl (d : Ast.decl) : rstmt =
    match d.d_storage with
    | Ast.Shared | Ast.Shared_extern ->
        (* layout assigned at block setup; nothing to execute *)
        S_nop
    | Ast.Local ->
        S_decl
          { slot = slot d.d_name; name = d.d_name; ty = d.d_type;
            init = Option.map expr d.d_init }
  and stmt (s : Ast.stmt) : rstmt =
    match s.s with
    | Ast.Nop -> S_nop
    | Ast.Label l -> S_label l
    | Ast.Decl d -> decl d
    | Ast.Expr e -> S_expr (expr (discard e))
    | Ast.If (c, t, e) -> S_if (expr c, stmts t, stmts e)
    | Ast.While (c, body) -> S_loop (Some (expr c), None, stmts body)
    | Ast.Do_while (body, c) -> S_do_while (stmts body, expr c)
    | Ast.For (init, cond, step, body) ->
        let init =
          match init with
          | None -> []
          | Some (Ast.For_expr e) -> [ S_expr (expr (discard e)) ]
          | Some (Ast.For_decl ds) -> List.map decl ds
        in
        S_block
          (init
          @ [
              S_loop
                ( Option.map expr cond,
                  Option.map (fun e -> expr (discard e)) step,
                  stmts body );
            ])
    | Ast.Return e -> S_return (Option.map expr e)
    | Ast.Break -> S_break
    | Ast.Continue -> S_continue
    | Ast.Sync -> S_sync
    | Ast.Bar_sync (id, count) -> S_bar (id, count)
    | Ast.Goto l -> S_goto l
    | Ast.Block b -> S_block (stmts b)
  in
  let body = stmts fn.f_body in
  { body; nslots = Hashtbl.length slots; params }

(* ------------------------------------------------------------------ *)
(* Warps                                                                *)
(* ------------------------------------------------------------------ *)

(** Per-warp execution context. *)
type wctx = {
  warp_size : int;
  warp_id : int;
  base_tid : int;  (** linear thread id of lane 0 within the block *)
  live : int;  (** mask of lanes backed by real threads *)
  block_idx : int;
  block_dim : int * int * int;
  grid_dim : int;
  slots : lanes array;  (** each name's lanes; {!unbound} until declared *)
  slot_types : Ctype.t array;  (** each name's last declared type *)
  mem : Memory.t;
  shared : Bytes.t;
  trace : Trace.t option;
  tables : block_tables;
  builtins : lanes array;
      (** the warp's [threadIdx]/[blockIdx]/[blockDim]/[gridDim] lanes,
          built on first use; shared by every read, never mutated *)
  mutable locals : Bytes.t array;
      (** per-lane local-array backing store, indexed by region id *)
  mutable local_seq : int;  (** next region id *)
  mutable loop_fuel : int;  (** guards against runaway loops *)
}

(** A fresh warp frame: every parameter's slot bound to its argument,
    every other slot unbound. *)
let frame (k : kernel) ~warp_size (args : Value.t list) :
    lanes array * Ctype.t array =
  let slots = Array.make k.nslots unbound in
  let types = Array.make k.nslots Ctype.Void in
  List.iter2
    (fun (s, ty) a ->
      slots.(s) <- lanes_of_value warp_size a;
      types.(s) <- ty)
    k.params args;
  (slots, types)

(** An empty builtin cache: one slot per builtin, filled on first use. *)
let builtins_create () : lanes array = Array.make 12 unbound

let tracing ctx = match ctx.trace with None -> false | Some _ -> true

let record ctx i =
  match ctx.trace with None -> () | Some t -> Trace.push t i

let full_of_threads n = if n >= 63 then -1 else (1 lsl n) - 1

(** The lowest active lane, or -1 when no lane is active. *)
let first_lane ctx mask =
  let rec go l =
    if l >= ctx.warp_size then -1
    else if mask land (1 lsl l) <> 0 then l
    else go (l + 1)
  in
  go 0

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go mask 0

(* ------------------------------------------------------------------ *)
(* Lane access                                                          *)
(* ------------------------------------------------------------------ *)

(** Lane [l] as a {!Value.t}. *)
let box (v : lanes) l : Value.t =
  match v with
  | I a -> Value.Int (Int32.of_int a.(l))
  | U a -> Value.UInt (Int32.of_int a.(l))
  | B a -> Value.Bool (a.(l) <> 0)
  | F a -> Value.Float a.(l)
  | D a -> Value.Double a.(l)
  | V a -> a.(l)

(** Every lane boxed (read-only: a [V]'s own array). *)
let boxed ctx (v : lanes) : Value.t array =
  match v with V a -> a | _ -> Array.init ctx.warp_size (box v)

let copy_lanes = function
  | I a -> I (Array.copy a)
  | U a -> U (Array.copy a)
  | B a -> B (Array.copy a)
  | F a -> F (Array.copy a)
  | D a -> D (Array.copy a)
  | V a -> V (Array.copy a)

(* [Value.to_int], [to_i64] of lane [l] *)
let lane_int (v : lanes) l : int =
  match v with
  | I a | U a | B a -> a.(l)
  | F a | D a -> Int64.to_int (Int64.of_float a.(l))
  | V a -> Value.to_int a.(l)

let lane_i64 (v : lanes) l : int64 =
  match v with
  | I a | U a | B a -> Int64.of_int a.(l)
  | F a | D a -> Int64.of_float a.(l)
  | V a -> Value.to_i64 a.(l)

(* [Value.convert Int]/[UInt] of a float payload *)
let int_of_f (f : float) : int =
  Int32.to_int
    (Int64.to_int32 (Int64.of_float (Float.of_int (int_of_float f))))

let uint_of_f (f : float) : int = Int64.to_int (Int64.of_float f) land mask32

let truth_mask ctx mask (v : lanes) : int =
  let m = ref 0 in
  (match v with
  | I a | U a | B a ->
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 && a.(l) <> 0 then m := !m lor (1 lsl l)
      done
  | F a | D a ->
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 && a.(l) <> 0.0 then m := !m lor (1 lsl l)
      done
  | V a ->
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 && Value.truthy a.(l) then
          m := !m lor (1 lsl l)
      done);
  !m

(** Fail as lane [l0 >= 0] would, else return [x]. *)
let fail_first l0 (f : unit -> 'a) (x : 'a) : 'a = if l0 >= 0 then f () else x

(* ------------------------------------------------------------------ *)
(* Coalescing / bank-conflict analysis                                  *)
(* ------------------------------------------------------------------ *)

(** 32-byte sector transactions of the active lanes' global addresses
    (distinct (buffer, sector) pairs), split into L1 misses and hits. *)
let global_transactions ctx mask (m : lmem) ~probe_l1 : int * int =
  let segs = ctx.tables.segs in
  Hashtbl.clear segs;
  (* a key repeated from the previous active lane is already in place
     (replacing it would not move it) *)
  let last_buf = ref (-1) and last_sector = ref (-1) in
  for l = 0 to ctx.warp_size - 1 do
    if mask land (1 lsl l) <> 0 then begin
      let buf = m.ptrs.(l).Value.buf and sector = m.offs.(l) lsr 5 in
      if buf <> !last_buf || sector <> !last_sector then begin
        Hashtbl.replace segs (buf, sector) ();
        last_buf := buf;
        last_sector := sector
      end
    end
  done;
  let miss = ref 0 and hit = ref 0 in
  Hashtbl.iter
    (fun (buf, sector) () ->
      if probe_l1 && l1_probe ctx.tables.l1 ~buf ~sector then incr hit
      else incr miss)
    segs;
  if !miss + !hit = 0 then (1, 0) else (!miss, !hit)

(* [true] when an active lane below [l] has the key lane [l] has *)
let seen_before mask (key : int -> bool) l =
  let rec go j = j < l && ((mask land (1 lsl j) <> 0 && key j) || go (j + 1)) in
  go 0

(** Shared-memory bank-conflict degree: 32 banks of 4-byte words; lanes
    hitting distinct words in the same bank serialise; identical
    addresses broadcast. *)
let bank_conflict_degree ctx mask (m : lmem) : int =
  let per_bank = Array.make 32 0 in
  for l = 0 to ctx.warp_size - 1 do
    if mask land (1 lsl l) <> 0 then begin
      let word = m.offs.(l) lsr 2 in
      if not (seen_before mask (fun j -> m.offs.(j) lsr 2 = word) l) then begin
        let bank = word land 31 in
        per_bank.(bank) <- per_bank.(bank) + 1
      end
    end
  done;
  Array.fold_left max 1 per_bank

(** Serialisation degree of atomics: the maximum number of active lanes
    addressing the same location. *)
let atomic_conflict_degree ctx mask (m : lmem) : int =
  let same l j =
    m.ptrs.(j).Value.buf = m.ptrs.(l).Value.buf && m.offs.(j) = m.offs.(l)
  in
  let degree = ref 1 in
  for l = 0 to ctx.warp_size - 1 do
    if mask land (1 lsl l) <> 0 && not (seen_before mask (same l) l) then begin
      let n = ref 0 in
      for j = l to ctx.warp_size - 1 do
        if mask land (1 lsl j) <> 0 && same l j then incr n
      done;
      degree := max !degree !n
    end
  done;
  !degree

(* ------------------------------------------------------------------ *)
(* Memory access                                                        *)
(* ------------------------------------------------------------------ *)

let resolve_bytes ctx (p : Value.ptr) : Bytes.t =
  match p.Value.space with
  | Value.Global -> Memory.buffer ctx.mem p.Value.buf
  | Value.Shared -> ctx.shared
  | Value.Local_mem ->
      let id = p.Value.buf in
      if id >= 0 && id < ctx.local_seq then ctx.locals.(id)
      else fail "dangling local-memory pointer (region %d)" id

(** The element type every active lane accesses, or [Void] when they
    differ (or there is no active lane). *)
let uniform_elem ctx mask (m : lmem) : Ctype.t =
  match m.one with
  | Some p -> p.Value.elem
  | None ->
      let l0 = first_lane ctx mask in
      if l0 < 0 then Ctype.Void
      else begin
        let e0 = m.ptrs.(l0).Value.elem in
        let same = ref true in
        for l = l0 + 1 to ctx.warp_size - 1 do
          if mask land (1 lsl l) <> 0 && not (Ctype.equal m.ptrs.(l).Value.elem e0)
          then same := false
        done;
        if !same then e0 else Ctype.Void
      end

(** The bytes of an access's one pointer, resolved once; [None]: each
    lane resolves its own. *)
let common_bytes ctx (m : lmem) : Bytes.t option =
  Option.map (resolve_bytes ctx) m.one

(* lane [l]'s bytes, checked for [width] bytes at its offset as
   {!Memory.load_bytes}/[store_bytes] check them *)
let[@inline] lane_bytes ctx (m : lmem) common l width what : Bytes.t =
  let data =
    match common with Some d -> d | None -> resolve_bytes ctx m.ptrs.(l)
  in
  let off = m.offs.(l) in
  if off < 0 || off > Bytes.length data - width then
    Memory.check data off width what;
  data

let int_load ctx mask (m : lmem) width (get : Bytes.t -> int -> int) : int array =
  let common = common_bytes ctx m in
  let out = Array.make ctx.warp_size 0 in
  for l = 0 to ctx.warp_size - 1 do
    if mask land (1 lsl l) <> 0 then
      out.(l) <- get (lane_bytes ctx m common l width "load") m.offs.(l)
  done;
  out

let load ctx mask (m : lmem) : lanes =
  let n = ctx.warp_size in
  match uniform_elem ctx mask m with
  | Ctype.Int | Ctype.UInt as elem ->
      let common = common_bytes ctx m in
      let out = Array.make n 0 in
      for l = 0 to n - 1 do
        if mask land (1 lsl l) <> 0 then
          out.(l) <-
            Int32.to_int
              (Bytes.get_int32_le (lane_bytes ctx m common l 4 "load") m.offs.(l))
      done;
      if elem = Ctype.Int then I out
      else begin
        for l = 0 to n - 1 do out.(l) <- out.(l) land mask32 done;
        U out
      end
  | Ctype.Float ->
      let common = common_bytes ctx m in
      let out = Array.make n 0.0 in
      for l = 0 to n - 1 do
        if mask land (1 lsl l) <> 0 then
          out.(l) <-
            Int32.float_of_bits
              (Bytes.get_int32_le (lane_bytes ctx m common l 4 "load") m.offs.(l))
      done;
      F out
  | Ctype.Double ->
      let common = common_bytes ctx m in
      let out = Array.make n 0.0 in
      for l = 0 to n - 1 do
        if mask land (1 lsl l) <> 0 then
          out.(l) <-
            Int64.float_of_bits
              (Bytes.get_int64_le (lane_bytes ctx m common l 8 "load") m.offs.(l))
      done;
      D out
  | Ctype.Bool -> B (int_load ctx mask m 1 (fun d o -> Bool.to_int (Bytes.get_uint8 d o <> 0)))
  | Ctype.Char -> I (int_load ctx mask m 1 Bytes.get_int8)
  | Ctype.UChar -> U (int_load ctx mask m 1 Bytes.get_uint8)
  | Ctype.Short -> I (int_load ctx mask m 2 Bytes.get_int16_le)
  | Ctype.UShort -> U (int_load ctx mask m 2 Bytes.get_uint16_le)
  | _ ->
      let out = Array.make n vzero in
      for l = 0 to n - 1 do
        if mask land (1 lsl l) <> 0 then begin
          let p = m.ptrs.(l) in
          out.(l) <- Memory.load_bytes (resolve_bytes ctx p) m.offs.(l) p.Value.elem
        end
      done;
      V out

(* [Value.to_float] of the lanes; only active lanes of a boxed vector
   are read, in order, since they may fail *)
let floats ctx mask (v : lanes) : float array =
  match v with
  | F a | D a -> a
  | I a | U a | B a ->
      let out = Array.make ctx.warp_size 0.0 in
      for l = 0 to ctx.warp_size - 1 do
        out.(l) <- float_of_int a.(l)
      done;
      out
  | V a ->
      let out = Array.make ctx.warp_size 0.0 in
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 then out.(l) <- Value.to_float a.(l)
      done;
      out

let store_mem ctx mask (m : lmem) (v : lanes) : unit =
  let n = ctx.warp_size in
  let active l = mask land (1 lsl l) <> 0 in
  let set32 (bits : int -> int) =
    let common = common_bytes ctx m in
    for l = 0 to n - 1 do
      if active l then
        Bytes.set_int32_le (lane_bytes ctx m common l 4 "store") m.offs.(l)
          (Int32.of_int (bits l))
    done
  in
  match (uniform_elem ctx mask m, v) with
  | (Ctype.Int | Ctype.UInt), (I a | U a | B a) -> set32 (fun l -> a.(l))
  | Ctype.Int, (F a | D a) -> set32 (fun l -> int_of_f a.(l))
  | Ctype.UInt, (F a | D a) -> set32 (fun l -> uint_of_f a.(l))
  | Ctype.Float, (I _ | U _ | B _ | F _ | D _) ->
      (* [bits_of_float] rounds a double as [Value.convert Float] does *)
      let x = floats ctx mask v in
      set32 (fun l -> Int32.to_int (Int32.bits_of_float x.(l)))
  | Ctype.Double, (I _ | U _ | B _ | F _ | D _) ->
      let x = floats ctx mask v in
      let common = common_bytes ctx m in
      for l = 0 to n - 1 do
        if active l then
          Bytes.set_int64_le (lane_bytes ctx m common l 8 "store") m.offs.(l)
            (Int64.bits_of_float x.(l))
      done
  | _ ->
      for l = 0 to n - 1 do
        if active l then begin
          let p = m.ptrs.(l) in
          Memory.store_bytes (resolve_bytes ctx p) m.offs.(l) p.Value.elem (box v l)
        end
      done

(** Record the trace event for a [load] ([is_load = true]) or store of
    the active lanes' addresses. *)
let record_access ctx mask (m : lmem) ~is_load : unit =
  if tracing ctx then begin
    (* the first active lane's pointer names the space *)
    let l = first_lane ctx mask in
    if l >= 0 then
      match m.ptrs.(l).Value.space with
      | Value.Global ->
          if is_load then begin
            let miss, hit = global_transactions ctx mask m ~probe_l1:true in
            record ctx (Instr.Ld_global (miss, hit))
          end
          else begin
            (* write-through, no-allocate: stores always pay DRAM bandwidth
               but do invalidate nothing and allocate nothing *)
            let miss, hit = global_transactions ctx mask m ~probe_l1:false in
            record ctx (Instr.St_global (miss + hit))
          end
      | Value.Shared ->
          let n = bank_conflict_degree ctx mask m in
          record ctx (if is_load then Instr.Ld_shared n else Instr.St_shared n)
      | Value.Local_mem ->
          (* per-thread arrays model the miners' register-resident state
             (the real kernels fully unroll); charge a register move, not
             a memory access *)
          record ctx Instr.Alu
  end

(* ------------------------------------------------------------------ *)
(* Builtins                                                             *)
(* ------------------------------------------------------------------ *)

let build_builtin ctx (i : int) : lanes =
  let bx, by, bz = ctx.block_dim in
  let per_lane f =
    U (Array.init ctx.warp_size (fun l -> f (ctx.base_tid + l) land mask32))
  in
  let all x = U (Array.make ctx.warp_size (x land mask32)) in
  match i with
  | 0 -> per_lane (fun tid -> tid mod bx)
  | 1 -> per_lane (fun tid -> tid / bx mod by)
  | 2 -> per_lane (fun tid -> tid / (bx * by))
  | 3 -> all ctx.block_idx
  | 4 | 5 -> all 0
  | 6 -> all bx
  | 7 -> all by
  | 8 -> all bz
  | 9 -> all ctx.grid_dim
  | _ -> all 1

(* Builtins are warp-invariant: each is built once per warp and the
   same lanes serve every read. *)
let eval_builtin ctx (i : int) : lanes =
  let v = ctx.builtins.(i) in
  if v != unbound then v
  else begin
    let v = build_builtin ctx i in
    ctx.builtins.(i) <- v;
    v
  end

(* ------------------------------------------------------------------ *)
(* Arithmetic on lane vectors                                           *)
(* ------------------------------------------------------------------ *)

(** Division has no hardware unit on these GPUs: integer div/mod lowers
    to a ~12-instruction reciprocal sequence, fp32 division to an SFU
    reciprocal plus a short Newton refinement.  Recorded accordingly so
    index-arithmetic-heavy kernels show their real issue pressure. *)
let record_div ctx mask (out : lanes) : unit =
  if tracing ctx then
    let cls =
      match out with
      | V a ->
          let l = first_lane ctx mask in
          if l >= 0 then a.(l) else vzero
      | F _ -> Value.Float 0.
      | D _ -> Value.Double 0.
      | I _ | U _ | B _ -> vzero
    in
    match cls with
    | Value.Float _ ->
        record ctx Instr.Sfu;
        for _ = 1 to 4 do record ctx Instr.Falu done
    | Value.Double _ -> for _ = 1 to 8 do record ctx Instr.Dalu done
    | Value.Long _ | Value.ULong _ ->
        for _ = 1 to 20 do record ctx Instr.Alu done
    | _ -> for _ = 1 to 12 do record ctx Instr.Alu done

(** Record the issue cost of an arithmetic result: fp32/fp64 go to their
    pipes; 64-bit integer operations lower to two 32-bit instructions on
    both modelled architectures (as in real SASS), everything else is
    one ALU op. *)
let record_arith ctx mask (out : lanes) : unit =
  if tracing ctx then
    match out with
    | F _ -> record ctx Instr.Falu
    | D _ -> record ctx Instr.Dalu
    | I _ | U _ | B _ -> record ctx Instr.Alu
    | V a -> (
        let l = first_lane ctx mask in
        match if l >= 0 then a.(l) else vzero with
        | Value.Float _ -> record ctx Instr.Falu
        | Value.Double _ -> record ctx Instr.Dalu
        | Value.Long _ | Value.ULong _ ->
            record ctx Instr.Alu;
            record ctx Instr.Alu
        | _ -> record ctx Instr.Alu)

let boxed_binop ctx mask op (a : lanes) (b : lanes) : lanes =
  let va = boxed ctx a and vb = boxed ctx b in
  let out = Array.make ctx.warp_size vzero in
  for l = 0 to ctx.warp_size - 1 do
    if mask land (1 lsl l) <> 0 then out.(l) <- Value.binop op va.(l) vb.(l)
  done;
  V out

(* The lanes of [mask] where a 32-bit comparison holds.  An unsigned
   order is the signed order of the zero-extensions; Gt swaps Lt's
   operands, Ge and Le negate Lt and Gt. *)
let int32_compare ctx mask (op : Ast.binop) ~unsigned (x : int array)
    (y : int array) : int =
  let ext = if unsigned then mask32 else -1 in
  let t = ref 0 in
  (match op with
  | Ast.Eq | Ast.Ne ->
      let want = op = Ast.Eq in
      for l = 0 to ctx.warp_size - 1 do
        if ((x.(l) - y.(l)) land mask32 = 0) = want then t := !t lor (1 lsl l)
      done
  | _ ->
      let swap = op = Ast.Gt || op = Ast.Le in
      let neg = op = Ast.Ge || op = Ast.Le in
      for l = 0 to ctx.warp_size - 1 do
        let a = x.(l) land ext and b = y.(l) land ext in
        if (if swap then b < a else a < b) <> neg then t := !t lor (1 lsl l)
      done);
  !t land mask

(* A 32-bit operator over sign-extended ([unsigned = false]) or
   zero-extended operands, as [Value]'s [int32_op].  The low 32 bits of
   Add/Sub/Mul/bitwise/Shl do not depend on the extension, so only Shr,
   Div, Mod and comparisons read it.  Operators that cannot fail run
   over every lane: an inactive lane's value is never read. *)
let int32_binop ctx mask (op : Ast.binop) ~unsigned (x : int array)
    (y : int array) : lanes =
  let n = ctx.warp_size in
  let out = Array.make n 0 in
  let arith () = if unsigned then U out else I out in
  let bool () = B out in
  match op with
  | Ast.Add ->
      if unsigned then for l = 0 to n - 1 do out.(l) <- (x.(l) + y.(l)) land mask32 done
      else for l = 0 to n - 1 do out.(l) <- sext32 (x.(l) + y.(l)) done;
      arith ()
  | Ast.Sub ->
      if unsigned then for l = 0 to n - 1 do out.(l) <- (x.(l) - y.(l)) land mask32 done
      else for l = 0 to n - 1 do out.(l) <- sext32 (x.(l) - y.(l)) done;
      arith ()
  | Ast.Mul ->
      if unsigned then for l = 0 to n - 1 do out.(l) <- (x.(l) * y.(l)) land mask32 done
      else for l = 0 to n - 1 do out.(l) <- sext32 (x.(l) * y.(l)) done;
      arith ()
  | Ast.Band ->
      if unsigned then for l = 0 to n - 1 do out.(l) <- x.(l) land y.(l) land mask32 done
      else for l = 0 to n - 1 do out.(l) <- x.(l) land y.(l) done;
      arith ()
  | Ast.Bor ->
      if unsigned then for l = 0 to n - 1 do out.(l) <- (x.(l) lor y.(l)) land mask32 done
      else for l = 0 to n - 1 do out.(l) <- x.(l) lor y.(l) done;
      arith ()
  | Ast.Bxor ->
      if unsigned then for l = 0 to n - 1 do out.(l) <- (x.(l) lxor y.(l)) land mask32 done
      else for l = 0 to n - 1 do out.(l) <- x.(l) lxor y.(l) done;
      arith ()
  | Ast.Shl ->
      if unsigned then
        for l = 0 to n - 1 do out.(l) <- (x.(l) lsl (y.(l) land 31)) land mask32 done
      else for l = 0 to n - 1 do out.(l) <- sext32 (x.(l) lsl (y.(l) land 31)) done;
      arith ()
  | Ast.Shr ->
      if unsigned then
        for l = 0 to n - 1 do out.(l) <- (x.(l) land mask32) lsr (y.(l) land 31) done
      else for l = 0 to n - 1 do out.(l) <- x.(l) asr (y.(l) land 31) done;
      arith ()
  | Ast.Div | Ast.Mod ->
      let ext a = if unsigned then a land mask32 else a in
      for l = 0 to n - 1 do
        if mask land (1 lsl l) <> 0 then begin
          let b = ext y.(l) in
          if b = 0 then
            if op = Ast.Div then Value.fail "integer division by zero"
            else Value.fail "integer modulo by zero";
          let r = if op = Ast.Div then ext x.(l) / b else ext x.(l) mod b in
          out.(l) <- (if unsigned then r land mask32 else sext32 r)
        end
      done;
      arith ()
  | Ast.Land ->
      for l = 0 to n - 1 do out.(l) <- Bool.to_int (x.(l) <> 0 && y.(l) <> 0) done;
      bool ()
  | Ast.Lor ->
      for l = 0 to n - 1 do out.(l) <- Bool.to_int (x.(l) <> 0 || y.(l) <> 0) done;
      bool ()
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      let t = int32_compare ctx (-1) op ~unsigned x y in
      for l = 0 to n - 1 do out.(l) <- (t lsr l) land 1 done;
      bool ()

(* [Value]'s [float_op]: binary32-rounded results when [single].
   Nothing but an invalid operator fails, so every lane is computed. *)
let float_binop ctx mask (op : Ast.binop) ~single (x : float array)
    (y : float array) : lanes =
  let n = ctx.warp_size in
  match op with
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div ->
      let out = Array.make n 0.0 in
      (match op with
      | Ast.Add -> for l = 0 to n - 1 do out.(l) <- x.(l) +. y.(l) done
      | Ast.Sub -> for l = 0 to n - 1 do out.(l) <- x.(l) -. y.(l) done
      | Ast.Mul -> for l = 0 to n - 1 do out.(l) <- x.(l) *. y.(l) done
      | _ -> for l = 0 to n - 1 do out.(l) <- x.(l) /. y.(l) done);
      if single then begin
        for l = 0 to n - 1 do out.(l) <- f32 out.(l) done;
        F out
      end
      else D out
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Land | Ast.Lor ->
      let b = Array.make n 0 in
      (match op with
      | Ast.Lt -> for l = 0 to n - 1 do b.(l) <- Bool.to_int (x.(l) < y.(l)) done
      | Ast.Gt -> for l = 0 to n - 1 do b.(l) <- Bool.to_int (x.(l) > y.(l)) done
      | Ast.Le -> for l = 0 to n - 1 do b.(l) <- Bool.to_int (x.(l) <= y.(l)) done
      | Ast.Ge -> for l = 0 to n - 1 do b.(l) <- Bool.to_int (x.(l) >= y.(l)) done
      | Ast.Eq -> for l = 0 to n - 1 do b.(l) <- Bool.to_int (x.(l) = y.(l)) done
      | Ast.Ne -> for l = 0 to n - 1 do b.(l) <- Bool.to_int (x.(l) <> y.(l)) done
      | Ast.Land ->
          for l = 0 to n - 1 do
            b.(l) <- Bool.to_int (x.(l) <> 0. && y.(l) <> 0.)
          done
      | _ ->
          for l = 0 to n - 1 do
            b.(l) <- Bool.to_int (x.(l) <> 0. || y.(l) <> 0.)
          done);
      B b
  | _ ->
      fail_first (first_lane ctx mask)
        (fun () -> Value.fail "invalid float operator")
        (F (Array.make n 0.0))

(** A C binary operator over the active lanes, with [Value.binop]'s
    conversions: the class pair picks the code once. *)
let binop ctx mask (op : Ast.binop) (a : lanes) (b : lanes) : lanes =
  match (op, a, b) with
  | _, V _, _ | _, _, V _ -> boxed_binop ctx mask op a b
  | (Ast.Shl | Ast.Shr), (F _ | D _), _ | (Ast.Shl | Ast.Shr), _, (F _ | D _)
    ->
      boxed_binop ctx mask op a b
  (* shifts take the left operand's class *)
  | (Ast.Shl | Ast.Shr), (I x | B x), (I y | U y | B y) ->
      int32_binop ctx mask op ~unsigned:false x y
  | (Ast.Shl | Ast.Shr), U x, (I y | U y | B y) ->
      int32_binop ctx mask op ~unsigned:true x y
  | _, (I x | B x), (I y | B y) -> int32_binop ctx mask op ~unsigned:false x y
  | _, (I x | U x | B x), (I y | U y | B y) ->
      int32_binop ctx mask op ~unsigned:true x y
  | _, F x, F y -> float_binop ctx mask op ~single:true x y
  | _, D x, D y -> float_binop ctx mask op ~single:false x y
  | _, D _, _ | _, _, D _ ->
      float_binop ctx mask op ~single:false (floats ctx mask a) (floats ctx mask b)
  | _ -> float_binop ctx mask op ~single:true (floats ctx mask a) (floats ctx mask b)

let unop ctx mask (op : Ast.unop) (v : lanes) : lanes =
  let n = ctx.warp_size in
  let ints f (a : int array) =
    let out = Array.make n 0 in
    for l = 0 to n - 1 do
      if mask land (1 lsl l) <> 0 then out.(l) <- f a.(l)
    done;
    out
  in
  let neg ~single (a : float array) =
    let out = Array.make n 0.0 in
    for l = 0 to n - 1 do
      if mask land (1 lsl l) <> 0 then
        out.(l) <- (if single then f32 (-.a.(l)) else -.a.(l))
    done;
    out
  in
  match (op, v) with
  | Ast.Lnot, _ ->
      let t = truth_mask ctx mask v in
      let out = Array.make n 0 in
      for l = 0 to n - 1 do
        if mask land (1 lsl l) <> 0 && t land (1 lsl l) = 0 then out.(l) <- 1
      done;
      B out
  | _, V a ->
      let out = Array.make n vzero in
      for l = 0 to n - 1 do
        if mask land (1 lsl l) <> 0 then out.(l) <- Value.unop op a.(l)
      done;
      V out
  | Ast.Neg, I a -> I (ints (fun x -> sext32 (-x)) a)
  | Ast.Neg, U a -> U (ints (fun x -> -x land mask32) a)
  | Ast.Neg, B a -> I (ints (fun x -> -x) a)
  | Ast.Neg, F a -> F (neg ~single:true a)
  | Ast.Neg, D a -> D (neg ~single:false a)
  | Ast.Bnot, (I a | B a) -> I (ints lnot a)
  | Ast.Bnot, U a -> U (ints (fun x -> lnot x land mask32) a)
  | Ast.Bnot, (F _ | D _) ->
      fail_first (first_lane ctx mask)
        (fun () -> Value.fail "invalid unary operand")
        v

(* A fresh vector in the class [Value.convert ty] produces. *)
let fresh_for n (ty : Ctype.t) : lanes =
  match ty with
  | Ctype.(Char | Short | Int) -> I (Array.make n 0)
  | Ctype.(UChar | UShort | UInt) -> U (Array.make n 0)
  | Ctype.Bool -> B (Array.make n 0)
  | Ctype.Float -> F (Array.make n 0.0)
  | Ctype.Double -> D (Array.make n 0.0)
  | _ -> V (Array.make n vzero)

(* Write [c] into lane [l] of [dst]; a value of another class turns
   [dst] into a boxed copy first.  Returns the vector written. *)
let put ctx (dst : lanes) l (c : Value.t) : lanes =
  match (dst, c) with
  | I d, Value.Int x ->
      d.(l) <- Int32.to_int x;
      dst
  | U d, Value.UInt x ->
      d.(l) <- Int32.to_int x land mask32;
      dst
  | B d, Value.Bool b ->
      d.(l) <- Bool.to_int b;
      dst
  | F d, Value.Float x ->
      d.(l) <- x;
      dst
  | D d, Value.Double x ->
      d.(l) <- x;
      dst
  | V d, c ->
      d.(l) <- c;
      dst
  | _ ->
      let d = Array.init ctx.warp_size (box dst) in
      d.(l) <- c;
      V d

(** Write [Value.convert ty] of the active lanes of [v] into [dst];
    returns the vector written ([dst] unless it had to be boxed). *)
let convert_into ctx mask (ty : Ctype.t) (dst : lanes) (v : lanes) : lanes =
  let n = ctx.warp_size in
  let active l = mask land (1 lsl l) <> 0 in
  match (ty, dst, v) with
  | Ctype.Int, I d, (I s | B s) ->
      for l = 0 to n - 1 do if active l then d.(l) <- s.(l) done;
      dst
  | Ctype.Int, I d, U s ->
      for l = 0 to n - 1 do if active l then d.(l) <- sext32 s.(l) done;
      dst
  | Ctype.Int, I d, (F s | D s) ->
      for l = 0 to n - 1 do if active l then d.(l) <- int_of_f s.(l) done;
      dst
  | Ctype.UInt, U d, (I s | U s | B s) ->
      for l = 0 to n - 1 do if active l then d.(l) <- s.(l) land mask32 done;
      dst
  | Ctype.UInt, U d, (F s | D s) ->
      for l = 0 to n - 1 do if active l then d.(l) <- uint_of_f s.(l) done;
      dst
  | Ctype.Bool, B d, (I s | U s | B s) ->
      for l = 0 to n - 1 do if active l then d.(l) <- Bool.to_int (s.(l) <> 0) done;
      dst
  | Ctype.Float, F d, F s | Ctype.Double, D d, (F s | D s) ->
      for l = 0 to n - 1 do if active l then d.(l) <- s.(l) done;
      dst
  | Ctype.Float, F d, D s ->
      for l = 0 to n - 1 do if active l then d.(l) <- f32 s.(l) done;
      dst
  | Ctype.Float, F d, (I s | U s | B s) ->
      for l = 0 to n - 1 do
        if active l then d.(l) <- f32 (float_of_int s.(l))
      done;
      dst
  | Ctype.Double, D d, (I s | U s | B s) ->
      for l = 0 to n - 1 do if active l then d.(l) <- float_of_int s.(l) done;
      dst
  | _ ->
      let dst = ref dst in
      for l = 0 to n - 1 do
        if active l then dst := put ctx !dst l (Value.convert ty (box v l))
      done;
      !dst

(** Copy the active lanes of [v] into [dst] unconverted. *)
let copy_into ctx mask (dst : lanes) (v : lanes) : lanes =
  let n = ctx.warp_size in
  match (dst, v) with
  | I d, I s | U d, U s | B d, B s ->
      for l = 0 to n - 1 do
        if mask land (1 lsl l) <> 0 then d.(l) <- s.(l)
      done;
      dst
  | F d, F s | D d, D s ->
      for l = 0 to n - 1 do
        if mask land (1 lsl l) <> 0 then d.(l) <- s.(l)
      done;
      dst
  | _ ->
      let dst = ref dst in
      for l = 0 to n - 1 do
        if mask land (1 lsl l) <> 0 then dst := put ctx !dst l (box v l)
      done;
      !dst

(** Lanes of [va] where [mt] is set, of [vb] elsewhere in [mask]. *)
let select ctx mask mt (va : lanes) (vb : lanes) : lanes =
  let n = ctx.warp_size in
  let ints (x : int array) (y : int array) =
    let out = Array.make n 0 in
    for l = 0 to n - 1 do
      if mask land (1 lsl l) <> 0 then
        out.(l) <- (if mt land (1 lsl l) <> 0 then x.(l) else y.(l))
    done;
    out
  in
  let fls (x : float array) (y : float array) =
    let out = Array.make n 0.0 in
    for l = 0 to n - 1 do
      if mask land (1 lsl l) <> 0 then
        out.(l) <- (if mt land (1 lsl l) <> 0 then x.(l) else y.(l))
    done;
    out
  in
  match (va, vb) with
  | I x, I y -> I (ints x y)
  | U x, U y -> U (ints x y)
  | B x, B y -> B (ints x y)
  | F x, F y -> F (fls x y)
  | D x, D y -> D (fls x y)
  | _ ->
      let out = Array.make n vzero in
      for l = 0 to n - 1 do
        if mask land (1 lsl l) <> 0 then
          out.(l) <- box (if mt land (1 lsl l) <> 0 then va else vb) l
      done;
      V out

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                                *)
(* ------------------------------------------------------------------ *)

(** An evaluated lvalue. *)
type lval = Lv_reg of int * string | Lv_mem of lmem

(** The memory lvalue of pointer lanes [vb], lane [l] indexed by lane
    [l] of [vi] elements when [scaled] (else a dereference);
    [non_pointer v] fails on a lane that holds no pointer.  Per lane,
    as the per-lane subscript computes it: the base is checked, then
    its element size read, then the index. *)
let pointer_lanes ctx mask (vb : lanes) ~scaled (vi : lanes)
    (non_pointer : Value.t -> unit) : lval =
  let n = ctx.warp_size in
  let offs = Array.make n 0 in
  (* consecutive lanes mostly hold the very same pointer value: its
     element size is read once, and the per-lane pointers are stored
     only once a second one shows *)
  let none = Value.Ptr dummy_ptr (* a value no lane holds *) in
  let prev = ref none and p = ref dummy_ptr and size = ref 0 in
  let ptrs = ref [||] in
  for l = 0 to n - 1 do
    if mask land (1 lsl l) <> 0 then begin
      let v = match vb with V a -> a.(l) | _ -> box vb l in
      if v != !prev then begin
        (match v with
        | Value.Ptr q ->
            if !prev != none && !ptrs == [||] then ptrs := Array.make n !p;
            if scaled then size := Ctype.sizeof q.Value.elem;
            p := q
        | v -> non_pointer v);
        prev := v
      end;
      if !ptrs != [||] then !ptrs.(l) <- !p;
      offs.(l) <-
        (if not scaled then !p.Value.off
         else
           !p.Value.off
           + ((match vi with I a | U a | B a -> a.(l) | _ -> lane_int vi l) * !size))
    end
  done;
  if !ptrs != [||] then Lv_mem { ptrs = !ptrs; offs; one = None }
  else
    Lv_mem
      {
        ptrs = Array.make n !p;
        offs;
        one = (if !prev != none then Some !p else None);
      }

let read_slot ctx slot name : lanes =
  let v = ctx.slots.(slot) in
  if v == unbound then fail "use of unbound variable %s" name else v

(** Store [v] into a register at the active lanes, converted to the
    slot's declared type when it is arithmetic; returns the register's
    lanes. *)
let store_reg ctx mask slot name (v : lanes) : lanes =
  let cur = ctx.slots.(slot) in
  if cur == unbound then fail "assignment to unbound variable %s" name;
  let ty = ctx.slot_types.(slot) in
  let next =
    if Ctype.is_arith ty then convert_into ctx mask ty cur v
    else copy_into ctx mask cur v
  in
  ctx.slots.(slot) <- next;
  next

let rec eval ctx mask (e : rexpr) : lanes =
  match e with
  | Const v -> v
  | Reg (slot, name, shared) -> (
      let v = ctx.slots.(slot) in
      if v != unbound then v
      else
        match shared with
        | Some v -> v
        | None -> fail "use of unbound variable %s" name)
  | Builtin i -> eval_builtin ctx i
  | Unop (op, a) ->
      let va = eval ctx mask a in
      let out = unop ctx mask op va in
      record_arith ctx mask out;
      out
  | Land (a, b) ->
      let need_b = truth ctx mask a in
      let t = if need_b = 0 then 0 else truth ctx need_b b in
      record ctx Instr.Alu;
      bits ctx t
  | Lor (a, b) ->
      let a_true = truth ctx mask a in
      let need_b = mask land lnot a_true in
      let t = if need_b = 0 then 0 else truth ctx need_b b in
      record ctx Instr.Alu;
      bits ctx (a_true lor t)
  | Binop (op, a, b) ->
      let va = eval ctx mask a in
      let vb = eval ctx mask b in
      let out = binop ctx mask op va vb in
      (match op with
      | Ast.Div | Ast.Mod -> record_div ctx mask out
      | _ -> record_arith ctx mask out);
      out
  | Assign (lhs, rhs) ->
      let v = eval ctx mask rhs in
      store_lval ctx mask (eval_lval ctx mask lhs) v
  | Op_assign (op, lhs, rhs) ->
      let lv = eval_lval ctx mask lhs in
      let cur = load_lval ctx mask lv in
      let vb = eval ctx mask rhs in
      let out = binop ctx mask op cur vb in
      (match op with
      | Ast.Div | Ast.Mod -> record_div ctx mask out
      | _ -> record_arith ctx mask out);
      store_lval ctx mask lv out
  | Incdec (pre, op, lval, one) ->
      let lv = eval_lval ctx mask lval in
      let cur = load_lval ctx mask lv in
      (* a register's lanes are its slot's own vector, which the store
         below overwrites: a post-op keeps a copy of the old value *)
      let old = match lv with Lv_reg _ when not pre -> copy_lanes cur | _ -> cur in
      let next = binop ctx mask op cur one in
      record ctx Instr.Alu;
      let stored = store_lval ctx mask lv next in
      if pre then stored else old
  | Ternary (c, a, b) ->
      let mt = truth ctx mask c in
      let mf = mask land lnot mt in
      let out =
        if mf = 0 then
          let va = eval ctx mt a in
          select ctx mask mt va va
        else if mt = 0 then
          let vb = eval ctx mf b in
          select ctx mask 0 vb vb
        else
          let va = eval ctx mt a in
          let vb = eval ctx mf b in
          select ctx mask mt va vb
      in
      record ctx Instr.Alu;
      out
  | Load lv -> (
      match eval_lval ctx mask lv with
      | Lv_mem m ->
          let out = load ctx mask m in
          record_access ctx mask m ~is_load:true;
          out
      | Lv_reg _ -> assert false)
  | Addr_of lv -> (
      match eval_lval ctx mask lv with
      | Lv_mem m ->
          V
            (Array.init ctx.warp_size (fun l ->
                 Value.Ptr { (m.ptrs.(l)) with Value.off = m.offs.(l) }))
      | Lv_reg (_, x) -> fail "cannot take the address of register variable %s" x)
  | Cast (ty, a) ->
      let va = eval ctx mask a in
      let out = convert_into ctx mask ty (fresh_for ctx.warp_size ty) va in
      (* pointer reinterpretation is free; arithmetic conversions cost *)
      (match ty with
      | Ctype.Ptr _ -> ()
      | _ -> record ctx Instr.Alu);
      out
  | Min_max (op, a, b) ->
      let va = eval ctx mask a in
      let vb = eval ctx mask b in
      let pick = truth_mask ctx mask (binop ctx mask op va vb) in
      let out = select ctx mask pick va vb in
      record_arith ctx mask out;
      out
  | Fmin_max (is_min, a, b) ->
      let va = eval ctx mask a in
      let vb = eval ctx mask b in
      let x = floats ctx mask va and y = floats ctx mask vb in
      let out = Array.make ctx.warp_size 0.0 in
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 then
          out.(l) <-
            f32 (if is_min then Float.min x.(l) y.(l) else Float.max x.(l) y.(l))
      done;
      record ctx Instr.Falu;
      F out
  | Float_fn (fn, a) ->
      let va = eval ctx mask a in
      let x = floats ctx mask va in
      let out = Array.make ctx.warp_size 0.0 in
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 then
          let x = x.(l) in
          out.(l) <-
            f32
              (match fn with
              | Fabs -> Float.abs x
              | Sqrt -> sqrt x
              | Rsqrt -> 1.0 /. sqrt x
              | Exp -> exp x
              | Log -> log x
              | Floor -> Float.floor x
              | Ceil -> Float.ceil x
              | Round -> Float.round x)
      done;
      record ctx
        (match fn with
        | Sqrt | Rsqrt | Exp | Log -> Instr.Sfu
        | Fabs | Floor | Ceil | Round -> Instr.Falu);
      F out
  | Get_msb a ->
      let va = eval ctx mask a in
      let out = Array.make ctx.warp_size 0 in
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 then begin
          let v = lane_int va l in
          if v <= 0 then fail "getMSB of non-positive value %d" v;
          let rec msb v acc = if v <= 1 then acc else msb (v lsr 1) (acc + 1) in
          out.(l) <- msb v 0
        end
      done;
      record ctx Instr.Alu;
      I out
  | Rot32 (left, a, b) ->
      let va = eval ctx mask a in
      let vb = eval ctx mask b in
      let out = Array.make ctx.warp_size 0 in
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 then begin
          let x =
            match va with
            | I a | U a | B a -> a.(l) land mask32
            | _ -> Int64.to_int (lane_i64 va l) land mask32
          in
          let n = lane_int vb l land 31 in
          let n = if left then (32 - n) land 31 else n in
          out.(l) <- ((x lsr n) lor (x lsl ((32 - n) land 31))) land mask32
        end
      done;
      record ctx Instr.Alu;
      U out
  | Rot64 (left, a, b) ->
      let va = eval ctx mask a in
      let vb = eval ctx mask b in
      let out = Array.make ctx.warp_size (Value.ULong 0L) in
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 then begin
          let x = lane_i64 va l in
          let n = lane_int vb l land 63 in
          let n = if left then (64 - n) land 63 else n in
          out.(l) <-
            Value.ULong
              (Int64.logor
                 (Int64.shift_right_logical x n)
                 (Int64.shift_left x ((64 - n) land 63)))
        end
      done;
      record ctx Instr.Alu;
      V out
  | Shfl (kind, v, delta, filler) ->
      let vv = eval ctx mask v in
      let vd = eval ctx mask delta in
      let n = ctx.warp_size in
      let src = Array.make n 0 in
      let from_filler = ref 0 in
      for l = 0 to n - 1 do
        if mask land (1 lsl l) <> 0 then begin
          let d = lane_int vd l in
          let s =
            match kind with
            | Shfl_xor -> l lxor d
            | Shfl_down -> l + d
            | Shfl_idx -> d (* absolute lane *)
          in
          let s = if s < 0 || s >= n then l else s in
          src.(l) <- s;
          if mask land (1 lsl s) = 0 && filler <> None then
            from_filler := !from_filler lor (1 lsl l)
        end
      done;
      record ctx Instr.Shfl;
      gather ctx mask vv src !from_filler filler
  | Atomic (kind, lv, v) ->
      let m = mem_lval ctx mask lv in
      let vv = eval ctx mask v in
      let out = atomic ctx mask kind m vv in
      (if tracing ctx then
         let degree = atomic_conflict_degree ctx mask m in
         let l = first_lane ctx mask in
         match if l >= 0 then m.ptrs.(l).Value.space else Value.Global with
         | Value.Shared -> record ctx (Instr.Atom_shared degree)
         | _ -> record ctx (Instr.Atom_global degree));
      out
  | Atomic_cas (lv, cmp, v) ->
      let m = mem_lval ctx mask lv in
      let vc = eval ctx mask cmp in
      let vv = eval ctx mask v in
      let out = Array.make ctx.warp_size vzero in
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 then begin
          let p = m.ptrs.(l) and off = m.offs.(l) in
          let old = Memory.load_bytes (resolve_bytes ctx p) off p.Value.elem in
          out.(l) <- old;
          if Value.truthy (Value.binop Ast.Eq old (box vc l)) then
            Memory.store_bytes (resolve_bytes ctx p) off p.Value.elem (box vv l)
        end
      done;
      if tracing ctx then
        record ctx (Instr.Atom_global (atomic_conflict_degree ctx mask m));
      V out
  | Ballot pred ->
      let vp = eval ctx mask pred in
      let b = truth_mask ctx mask vp in
      record ctx Instr.Shfl;
      U (Array.make ctx.warp_size (b land mask32))
  | Alu_nop ->
      record ctx Instr.Alu;
      I (Array.make ctx.warp_size 0)
  | Raise exn -> raise exn

(* The lanes of [mask] where [e] is true, as [truth_mask] of its
   value: a comparison of 32-bit lanes tests them straight into the
   mask. *)
and truth ctx mask (e : rexpr) : int =
  match e with
  | Binop (((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b)
    -> (
      let va = eval ctx mask a in
      let vb = eval ctx mask b in
      match (va, vb) with
      | (I x | B x), (I y | B y) ->
          record ctx Instr.Alu;
          int32_compare ctx mask op ~unsigned:false x y
      | (I x | U x | B x), (I y | U y | B y) ->
          record ctx Instr.Alu;
          int32_compare ctx mask op ~unsigned:true x y
      | _ ->
          let out = binop ctx mask op va vb in
          record_arith ctx mask out;
          truth_mask ctx mask out)
  | _ -> truth_mask ctx mask (eval ctx mask e)

(* a boolean vector from a lane mask *)
and bits ctx t : lanes =
  let out = Array.make ctx.warp_size 0 in
  for l = 0 to ctx.warp_size - 1 do
    if t land (1 lsl l) <> 0 then out.(l) <- 1
  done;
  B out

(* lane [l] takes lane [src.(l)] of [vv], or [filler] where
   [from_filler] is set *)
and gather ctx mask (vv : lanes) (src : int array) from_filler filler : lanes =
  let n = ctx.warp_size in
  match (vv, from_filler) with
  | (I a | U a | B a), 0 ->
      let out = Array.make n 0 in
      for l = 0 to n - 1 do
        if mask land (1 lsl l) <> 0 then out.(l) <- a.(src.(l))
      done;
      (match vv with I _ -> I out | U _ -> U out | _ -> B out)
  | (F a | D a), 0 ->
      let out = Array.make n 0.0 in
      for l = 0 to n - 1 do
        if mask land (1 lsl l) <> 0 then out.(l) <- a.(src.(l))
      done;
      (match vv with F _ -> F out | _ -> D out)
  | _ ->
      let out = Array.make n vzero in
      for l = 0 to n - 1 do
        if mask land (1 lsl l) <> 0 then
          out.(l) <-
            (match filler with
            | Some f when from_filler land (1 lsl l) <> 0 -> f
            | _ -> box vv src.(l))
      done;
      V out

and atomic ctx mask kind (m : lmem) (vv : lanes) : lanes =
  let n = ctx.warp_size in
  (* lanes apply in lane order — a legal serialisation *)
  match (uniform_elem ctx mask m, vv) with
  | ((Ctype.Int | Ctype.UInt) as elem), (I s | U s | B s) ->
      let common = common_bytes ctx m in
      let unsigned = elem = Ctype.UInt || (match vv with U _ -> true | _ -> false) in
      let ext x = if unsigned then x land mask32 else x in
      let out = Array.make n 0 in
      for l = 0 to n - 1 do
        if mask land (1 lsl l) <> 0 then begin
          let off = m.offs.(l) in
          let raw = Int32.to_int (Bytes.get_int32_le (lane_bytes ctx m common l 4 "load") off) in
          let old = if elem = Ctype.UInt then raw land mask32 else raw in
          out.(l) <- old;
          let x = s.(l) in
          let neu =
            match kind with
            | Atomic_add -> old + x
            | Atomic_max -> if ext x > ext old then x else old
            | Atomic_min -> if ext x < ext old then x else old
            | Atomic_exch -> x
          in
          Bytes.set_int32_le (lane_bytes ctx m common l 4 "store") off (Int32.of_int neu)
        end
      done;
      if elem = Ctype.UInt then U out else I out
  | Ctype.Float, F s ->
      let common = common_bytes ctx m in
      let out = Array.make n 0.0 in
      for l = 0 to n - 1 do
        if mask land (1 lsl l) <> 0 then begin
          let off = m.offs.(l) in
          let old =
            Int32.float_of_bits (Bytes.get_int32_le (lane_bytes ctx m common l 4 "load") off)
          in
          out.(l) <- old;
          let x = s.(l) in
          let neu =
            match kind with
            | Atomic_add -> f32 (old +. x)
            | Atomic_max -> if x > old then x else old
            | Atomic_min -> if x < old then x else old
            | Atomic_exch -> x
          in
          Bytes.set_int32_le (lane_bytes ctx m common l 4 "store") off (Int32.bits_of_float neu)
        end
      done;
      F out
  | _ ->
      let out = Array.make n vzero in
      for l = 0 to n - 1 do
        if mask land (1 lsl l) <> 0 then begin
          let p = m.ptrs.(l) and off = m.offs.(l) in
          let old = Memory.load_bytes (resolve_bytes ctx p) off p.Value.elem in
          out.(l) <- old;
          let x = box vv l in
          let neu =
            match kind with
            | Atomic_add -> Value.binop Ast.Add old x
            | Atomic_max ->
                if Value.truthy (Value.binop Ast.Gt x old) then x else old
            | Atomic_min ->
                if Value.truthy (Value.binop Ast.Lt x old) then x else old
            | Atomic_exch -> x
          in
          Memory.store_bytes (resolve_bytes ctx p) off p.Value.elem neu
        end
      done;
      V out

and mem_lval ctx mask lv : lmem =
  match eval_lval ctx mask lv with
  | Lv_mem m -> m
  | Lv_reg (_, x) -> fail "atomic on register variable %s" x

and eval_lval ctx mask (lv : rlval) : lval =
  match lv with
  | L_reg (slot, x) -> Lv_reg (slot, x)
  | L_mem m -> Lv_mem m
  | L_index (base, idx, e) ->
      let vb = eval ctx mask base in
      let vi = eval ctx mask idx in
      record ctx Instr.Alu (* address computation *);
      pointer_lanes ctx mask vb ~scaled:true vi (fun v ->
          fail "subscript of non-pointer value %a (in %s)" Value.pp v
            (Pretty.expr_to_string e))
  | L_deref a ->
      let vb = eval ctx mask a in
      pointer_lanes ctx mask vb ~scaled:false unbound (fun v ->
          fail "dereference of non-pointer value %a" Value.pp v)
  | L_bad e -> fail "not an lvalue: %s" (Pretty.expr_to_string e)

and load_lval ctx mask (lv : lval) : lanes =
  match lv with
  | Lv_reg (slot, x) -> read_slot ctx slot x
  | Lv_mem m ->
      let out = load ctx mask m in
      record_access ctx mask m ~is_load:true;
      out

(** Store [v] through [lv] at the active lanes; returns the stored
    lanes (a register's own, converted; a memory store's [v]). *)
and store_lval ctx mask (lv : lval) (v : lanes) : lanes =
  match lv with
  | Lv_reg (slot, x) -> store_reg ctx mask slot x v
  | Lv_mem m ->
      store_mem ctx mask m v;
      record_access ctx mask m ~is_load:false;
      v

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)
(* ------------------------------------------------------------------ *)

type outcome = { fall : int; brk : int; cont : int; ret : int }

let pure_fall mask = { fall = mask; brk = 0; cont = 0; ret = 0 }
let nothing = { fall = 0; brk = 0; cont = 0; ret = 0 }

let burn_fuel ctx =
  ctx.loop_fuel <- ctx.loop_fuel - 1;
  if ctx.loop_fuel <= 0 then raise Fuel_exhausted

(* The zero lanes a declaration binds. *)
let zero_lanes n (ty : Ctype.t) : lanes =
  match ty with
  | Ctype.Ptr elem ->
      (* an uninitialised pointer; poison until assigned *)
      V (Array.make n (Value.Ptr { Value.space = Value.Shared; buf = 0; off = 0; elem }))
  | t -> lanes_of_value n (try Value.zero t with _ -> vzero)

let exec_decl ctx mask (d : rdecl) : unit =
  ctx.slot_types.(d.slot) <- d.ty;
  (match d.ty with
  | Ctype.Array (el, Some n) ->
      (* per-lane backing store; each lane gets its own region *)
      if ctx.slots.(d.slot) == unbound then begin
        let bytes = n * Ctype.sizeof el in
        let ptrs =
          Array.init ctx.warp_size (fun _ ->
              let id = ctx.local_seq in
              if id = Array.length ctx.locals then begin
                let a = Array.make (max 8 (2 * id)) Bytes.empty in
                Array.blit ctx.locals 0 a 0 id;
                ctx.locals <- a
              end;
              ctx.locals.(id) <- Bytes.make bytes '\000';
              ctx.local_seq <- id + 1;
              Value.Ptr { Value.space = Value.Local_mem; buf = id; off = 0; elem = el })
        in
        ctx.slots.(d.slot) <- V ptrs
      end
  | Ctype.Array (_, None) -> fail "local array %s must have a size" d.name
  | ty ->
      if ctx.slots.(d.slot) == unbound then
        ctx.slots.(d.slot) <- zero_lanes ctx.warp_size ty);
  match d.init with
  | None -> ()
  | Some e ->
      let v = eval ctx mask e in
      ignore (store_reg ctx mask d.slot d.name v)

let rec exec_stmts ctx mask (stmts : rstmt list) : outcome =
  exec_seq ctx mask 0 0 0 stmts

(* statements in order while any lane falls through *)
and exec_seq ctx alive brk cont ret = function
  | s :: rest when alive <> 0 ->
      let out = exec_stmt ctx alive s in
      exec_seq ctx out.fall (brk lor out.brk) (cont lor out.cont)
        (ret lor out.ret) rest
  | _ -> { fall = alive; brk; cont; ret }

and exec_stmt ctx mask (s : rstmt) : outcome =
  match s with
  | S_nop | S_label _ -> pure_fall mask
  | S_decl d ->
      exec_decl ctx mask d;
      pure_fall mask
  | S_expr e ->
      ignore (eval ctx mask e);
      pure_fall mask
  | S_if (c, t, e) ->
      let mt = truth ctx mask c in
      record ctx Instr.Branch;
      let mf = mask land lnot mt in
      let out_t = if mt <> 0 then exec_stmts ctx mt t else nothing in
      let out_e = if mf <> 0 then exec_stmts ctx mf e else nothing in
      {
        fall = out_t.fall lor out_e.fall;
        brk = out_t.brk lor out_e.brk;
        cont = out_t.cont lor out_e.cont;
        ret = out_t.ret lor out_e.ret;
      }
  | S_loop (cond, step, body) -> exec_loop ctx mask ~cond ~step body
  | S_do_while (body, c) ->
      (* execute body once, then behave as a while *)
      let out = exec_stmts ctx mask body in
      let ret = out.ret and exited = out.brk in
      let alive = out.fall lor out.cont in
      let rest =
        if alive = 0 then nothing
        else exec_loop ctx alive ~cond:(Some c) ~step:None body
      in
      { fall = exited lor rest.fall; brk = 0; cont = 0; ret = ret lor rest.ret }
  | S_return None -> { fall = 0; brk = 0; cont = 0; ret = mask }
  | S_return (Some e) ->
      ignore (eval ctx mask e);
      { fall = 0; brk = 0; cont = 0; ret = mask }
  | S_break -> { fall = 0; brk = mask; cont = 0; ret = 0 }
  | S_continue -> { fall = 0; brk = 0; cont = mask; ret = 0 }
  | S_sync ->
      let bx, by, bz = ctx.block_dim in
      sync ctx mask ~id:0 ~count:(bx * by * bz);
      pure_fall mask
  | S_bar (id, count) ->
      sync ctx mask ~id ~count;
      pure_fall mask
  | S_goto l ->
      if mask <> ctx.live then
        fail
          "divergent goto %s (mask %x, live %x): HFuse emits only \
           warp-uniform gotos"
          l mask ctx.live;
      raise (Goto_exn l)
  | S_block b -> exec_stmts ctx mask b

and sync ctx mask ~id ~count =
  if mask <> ctx.live then
    fail "barrier (id %d) reached with divergent mask %x (live %x)" id mask
      ctx.live;
  record ctx (Instr.Bar (id, count));
  Effect.perform (Barrier_eff (id, count, popcount ctx.live))

and exec_loop ctx mask ~cond ~step body : outcome =
  let alive = ref mask in
  let exited = ref 0 and ret = ref 0 in
  (try
     while !alive <> 0 do
       burn_fuel ctx;
       (* condition *)
       let active =
         match cond with
         | None -> !alive
         | Some c ->
             let t = truth ctx !alive c in
             record ctx Instr.Branch;
             exited := !exited lor (!alive land lnot t);
             t
       in
       if active = 0 then raise Exit;
       let out = exec_stmts ctx active body in
       ret := !ret lor out.ret;
       exited := !exited lor out.brk;
       let continuing = out.fall lor out.cont in
       (match step with
       | Some e when continuing <> 0 -> ignore (eval ctx continuing e)
       | _ -> ());
       alive := continuing
     done
   with Exit -> ());
  { fall = !exited; brk = 0; cont = 0; ret = !ret }

(* ------------------------------------------------------------------ *)
(* Top level: kernel body with goto/label resolution                    *)
(* ------------------------------------------------------------------ *)

(** Execute a resolved kernel body for one warp.  Labels are resolved at
    the top statement level (where HFuse places them). *)
let run_body ctx (k : kernel) : unit =
  let rec go stmts =
    match exec_stmts ctx ctx.live stmts with
    | _ -> ()
    | exception Goto_exn l ->
        let rec find = function
          | [] -> fail "goto to label %s not found at kernel top level" l
          | S_label l' :: rest when String.equal l l' -> rest
          | _ :: rest -> find rest
        in
        go (find stmts)
  in
  go k.body
