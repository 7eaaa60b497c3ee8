(** Workload plumbing shared by the hand-written corpus kernels. *)

(** A kernel workload bound to buffers in a specific memory.
    Instantiating computes nothing: each input buffer is allocated with
    its seed-deterministic generator as the {!Gpusim.Memory.alloc}
    [init], so its bytes are generated the first time a launch or a
    read reaches them. *)
type instance = {
  args : Gpusim.Value.t list;  (** positional kernel arguments *)
  grid : int;
  smem_dynamic : int;
  outputs : (string * Gpusim.Value.ptr * int) list;
      (** (name, pointer, element count) per output buffer *)
  check : Gpusim.Memory.t -> (unit, string) result;
      (** host-reference validation of the outputs.  The reference is
          computed when [check] is called, from inputs regenerated from
          the same seed. *)
}

val check_floats :
  what:string -> expect:float array -> float array -> (unit, string) result

val check_int32s :
  what:string -> expect:int32 array -> int32 array -> (unit, string) result

val check_int64s :
  what:string -> expect:int64 array -> int64 array -> (unit, string) result

val iv : int -> Gpusim.Value.t
val fv : float -> Gpusim.Value.t

(** Grid used across the corpus: several waves per simulated SM on both
    device models, shared by every fusable pair. *)
val default_grid : int
