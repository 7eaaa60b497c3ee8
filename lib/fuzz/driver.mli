(** The fuzzing campaign driver: fan independent seeds over
    {!Hfuse_parallel.Pool}, minimize every failure, and report.

    Results are bit-identical for a fixed [seed] at any [jobs]: each
    case derives from its own mixed seed, [Pool.map] preserves input
    order, and repro files are written from the calling domain after
    the fan-out completes. *)

type config = {
  runs : int;
  seed : int;
  jobs : int;
  out_dir : string option;  (** where minimized repros land, if set *)
  weights : Gen.weights;
  max_kernels : int;  (** 2 = pairs only; 3 enables occasional triples *)
  minimize : bool;  (** shrink failures (on by default; tests may skip) *)
  shrink_budget : int;
  inject : (Cuda.Ast.fn -> Cuda.Ast.fn) option;
      (** fault injection on the fused kernel, for oracle meta-tests *)
  repair : bool;
      (** feed every [Rejected] pair through {!Hfuse_repair.Repair},
          gate the result with {!Oracle.run_repaired}, and report the
          serviceable fraction.  An oracle-refuted repair is a strategy
          bug: it is minimized, written as a ["repair-unsound"] repro,
          and counted under [failed]. *)
}

val default_config : config

type failure = {
  fail_seed : int;  (** the mixed per-case seed *)
  fail_index : int;  (** run index within the campaign *)
  verdict : Oracle.verdict;
  repro : Repro.t;  (** minimized (when [minimize]) repro *)
  shrink_attempts : int;
}

type report = {
  total : int;
  equivalent : int;
  rejected : int;
  invalid : int;
  failed : int;  (** oracle failures plus unsound repairs *)
  repair_attempted : int;
      (** rejected pairs fed to the repair engine (0 without
          [config.repair]; multi-kernel rejections count as
          unserviceable) *)
  repaired : int;  (** statically repaired and oracle-equivalent *)
  repair_unsound : int;
      (** statically repaired but refuted by the differential gate *)
  failures : failure list;  (** in run order *)
  repro_files : string list;  (** paths written under [out_dir] *)
}

(** Bump every [bar.sync] thread count by one warp — a guaranteed
    fused-side deadlock the oracle must catch.  The canonical [inject]
    for meta-testing. *)
val inject_barrier_count : Cuda.Ast.fn -> Cuda.Ast.fn

val run : config -> report

val pp_report : report Fmt.t
