(** Lock-step SIMT interpreter for the CUDA subset.

    Warps execute statements under an active-lane mask (divergent
    branches serialise, loops run while any lane is active,
    break/continue/return are mask outcomes).  Two things happen at
    once: the functional result lands in simulated memory, and a dynamic
    per-warp instruction trace (with coalescing and bank-conflict
    outcomes) is recorded for the timing model.

    Barriers suspend the warp via the {!Barrier_eff} effect; the block
    scheduler in {!Launch} counts arrivals per barrier id and resumes
    waiters — the PTX [bar.sync] arrival-counter semantics fused kernels
    rely on.

    A launch resolves the body once ({!resolve}); warps then run the
    resolved tree over typed lane vectors, with the values, errors and
    trace of a per-lane evaluation by {!Value}. *)

exception Exec_error of string

(** A warp exhausted its per-launch loop fuel (runaway loop).  Caught
    by {!Launch}, which re-raises it as the structured
    [Launch.Sim_timeout] with the launch context attached. *)
exception Fuel_exhausted

(** Raised by [goto]; resolved at the kernel body's top level. *)
exception Goto_exn of string

type _ Effect.t +=
  | Barrier_eff : int * int * int -> unit Effect.t
        (** (barrier id, thread count, this warp's live threads) *)

(** A warp's values, one per lane: typed and unboxed where every lane
    has the same class (32-bit integers and booleans, floats, doubles),
    boxed {!Value.t}s otherwise. *)
type lanes

(** Per-block tables shared by the block's warps: the sectored L1
    model (see {!Launch.config.l1_sectors}; [l1_sectors <= 0] disables
    it) and the table of one global access's sectors. *)
type block_tables

val block_tables : l1_sectors:int -> block_tables

(** A kernel body resolved for one launch: every local and parameter
    name is a slot, shared arrays are their layout pointers, literals
    are prebuilt lanes and intrinsics a variant. *)
type kernel

(** [resolve ~warp_size ~layout fn] resolves [fn]'s (normalised) body;
    [layout] maps each shared array to its byte offset and element
    type. *)
val resolve :
  warp_size:int ->
  layout:(string, int * Cuda.Ctype.t) Hashtbl.t ->
  Cuda.Ast.fn ->
  kernel

(** Per-warp execution context, built by {!Launch}. *)
type wctx = {
  warp_size : int;
  warp_id : int;
  base_tid : int;
  live : int;  (** mask of lanes backed by real threads *)
  block_idx : int;
  block_dim : int * int * int;
  grid_dim : int;
  slots : lanes array;  (** from {!frame} *)
  slot_types : Cuda.Ctype.t array;  (** from {!frame} *)
  mem : Memory.t;
  shared : Bytes.t;
  trace : Trace.t option;
  tables : block_tables;
  builtins : lanes array;
      (** warp-invariant builtin lanes, filled on first use (start from
          {!builtins_create}) *)
  mutable locals : Bytes.t array;  (** start from [[||]] *)
  mutable local_seq : int;
  mutable loop_fuel : int;
}

(** A fresh warp frame (slots and their declared types): each
    parameter's slot bound to its argument, in order, every other slot
    unbound. *)
val frame :
  kernel -> warp_size:int -> Value.t list -> lanes array * Cuda.Ctype.t array

val builtins_create : unit -> lanes array

val full_of_threads : int -> int
(** Mask with the low [n] bits set. *)

(** Execute a resolved kernel body for one warp (labels resolve at the
    top statement level, where HFuse places them).
    @raise Exec_error on runtime faults, divergent gotos or barriers.
    @raise Fuel_exhausted when the warp's loop fuel runs out. *)
val run_body : wctx -> kernel -> unit
