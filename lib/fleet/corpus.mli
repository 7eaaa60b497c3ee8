(** The fleet corpus: the hand-written extended registry plus a curated
    set of fuzzer-generated kernels.

    Curation is a deterministic scan: seeds are tried from 0 upward and
    kept iff {!vet} accepts the generated kernel — so every process
    reconstructs the identical corpus with no hand-maintained seed
    list, and {!digest} fingerprints it for CI cache keys and the
    fleet's resume run ids. *)

type entry = {
  seed : int;  (** generator seed (also encoded in the kernel name) *)
  kernel : Hfuse_fuzz.Gen.kernel;
  spec : Kernel_corpus.Spec.t;
}

val generated_count : int
(** How many curated generated kernels the corpus carries (33). *)

val kernel_name : int -> string
(** ["gen%03d"] of the seed. *)

val vet : Hfuse_fuzz.Gen.kernel -> (unit, string) result
(** The curation predicate: source round-trips through the parser, the
    solo verifier reports no diagnostics on the normalized body,
    registers/shared memory are modest, and a solo simulated launch
    completes under the fuzzer's loop-fuel budget. *)

val curated : unit -> entry list
(** The curated corpus, in ascending seed order.  Memoized; the first
    call runs the scan (a few seconds of generation + vetting). *)

val all_specs : unit -> Kernel_corpus.Spec.t list
(** Canonical fleet order: {!Kernel_corpus.Registry.extended}, then the
    curated generated kernels by ascending seed. *)

val install : unit -> unit
(** Publish the generated specs through
    {!Kernel_corpus.Registry.register_extra} so name-based resolution
    (CLI flags, the daemon protocol) sees them. *)

val digest : unit -> string
(** MD5 hex fingerprint of the whole corpus (names, sources, resource
    calibration, launch shapes) — the CI cache key and a component of
    the fleet's resume roots ({!Fleet.run_parts}). *)
