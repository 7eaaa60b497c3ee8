(* Workload plumbing shared by the hand-written corpus kernels.

   A kernel module provides [instantiate], which allocates inputs and
   outputs in a fresh-or-given simulated memory and returns an
   {!instance}: the positional kernel arguments, the launch geometry, and
   a host-reference check.  Instantiating only describes the workload:
   inputs are generated when a buffer is first reached, and the host
   reference when [check] runs, so configuring a kernel for a search
   that never executes it costs next to nothing.  The [size] knob scales per-thread work (the
   ratio sweeps of Fig. 7 vary one kernel's size while holding the
   other's). *)

open Gpusim

(** A kernel workload bound to buffers in a specific memory. *)
type instance = {
  args : Value.t list;  (** positional kernel arguments *)
  grid : int;
  smem_dynamic : int;
  outputs : (string * Value.ptr * int) list;
      (** (name, pointer, element count) of each output buffer *)
  check : Memory.t -> (unit, string) result;
      (** host-reference validation of the outputs *)
}

(** Absolute tolerance for fp32 reductions: the device-order and
    host-order sums differ by rounding. *)
let float_tol = 1e-2

let check_floats ~what ~(expect : float array) (got : float array) :
    (unit, string) result =
  if Array.length expect <> Array.length got then
    Error
      (Fmt.str "%s: length mismatch (%d vs %d)" what (Array.length expect)
         (Array.length got))
  else begin
    let bad = ref None in
    Array.iteri
      (fun i e ->
        if !bad = None then
          let g = got.(i) in
          let scale = Float.max 1.0 (Float.abs e) in
          if Float.abs (e -. g) > float_tol *. scale then
            bad := Some (i, e, g))
      expect;
    match !bad with
    | None -> Ok ()
    | Some (i, e, g) ->
        Error (Fmt.str "%s[%d]: expected %.6f, got %.6f" what i e g)
  end

let check_int32s ~what ~(expect : int32 array) (got : int32 array) :
    (unit, string) result =
  if Array.length expect <> Array.length got then
    Error
      (Fmt.str "%s: length mismatch (%d vs %d)" what (Array.length expect)
         (Array.length got))
  else begin
    let bad = ref None in
    Array.iteri
      (fun i e -> if !bad = None && e <> got.(i) then bad := Some (i, e, got.(i)))
      expect;
    match !bad with
    | None -> Ok ()
    | Some (i, e, g) -> Error (Fmt.str "%s[%d]: expected %ld, got %ld" what i e g)
  end

let check_int64s ~what ~(expect : int64 array) (got : int64 array) :
    (unit, string) result =
  if Array.length expect <> Array.length got then
    Error
      (Fmt.str "%s: length mismatch (%d vs %d)" what (Array.length expect)
         (Array.length got))
  else begin
    let bad = ref None in
    Array.iteri
      (fun i e -> if !bad = None && e <> got.(i) then bad := Some (i, e, got.(i)))
      expect;
    match !bad with
    | None -> Ok ()
    | Some (i, e, g) ->
        Error (Fmt.str "%s[%d]: expected %Lx, got %Lx" what i e g)
  end

let iv n = Value.Int (Int32.of_int n)
let fv x = Value.Float (Value.f32 x)

(** The default grid used across the corpus: every benchmark kernel (and
    hence every fusable pair) launches this many blocks, several waves
    per simulated SM on both device models. *)
let default_grid = 96
