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
    rely on. *)

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

type lanes = Value.t array

(** Per-block tables shared by the block's warps: the sectored L1
    model (see {!Launch.config.l1_sectors}; [l1_sectors <= 0] disables
    it) and the coalescing analyses' scratch tables. *)
type block_tables

val block_tables : l1_sectors:int -> block_tables

(** Per-warp execution context, built by {!Launch}. *)
type wctx = {
  warp_size : int;
  warp_id : int;
  base_tid : int;
  live : int;  (** mask of lanes backed by real threads *)
  block_idx : int;
  block_dim : int * int * int;
  grid_dim : int;
  env : (string, lanes) Hashtbl.t;
  types : (string, Cuda.Ctype.t) Hashtbl.t;
  mem : Memory.t;
  shared : Bytes.t;
  shared_layout : (string, int * Cuda.Ctype.t) Hashtbl.t;
  trace : Trace.t option;
  tables : block_tables;
  builtins : lanes array;
      (** warp-invariant builtin lanes, filled on first use (start from
          {!builtins_create}) *)
  locals : (int, Bytes.t) Hashtbl.t;
  mutable local_seq : int;
  mutable loop_fuel : int;
}

val builtins_create : unit -> lanes array

val full_of_threads : int -> int
(** Mask with the low [n] bits set. *)

(** Execute a kernel body for one warp (labels resolve at the top
    statement level, where HFuse places them).
    @raise Exec_error on runtime faults, divergent gotos or barriers.
    @raise Fuel_exhausted when the warp's loop fuel runs out. *)
val run_body : wctx -> Cuda.Ast.stmt list -> unit
