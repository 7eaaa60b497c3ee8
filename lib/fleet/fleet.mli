(** The fleet driver: corpus-scale fusion-search soak.

    Enumerates every unordered pair of the fleet corpus ({!Corpus}),
    deterministically shards them, runs the Fig. 6 search on each —
    in-process through {!Hfuse_serve.Ops.search} or against a live
    daemon — and reports per-pair rows plus aggregate scaling metrics.

    Determinism contract: a row is a pure function of (corpus, arch,
    sizes, top_k).  It is bit-identical at any shard count, any [-j],
    any cache temperature, chaos on or off, in-process or via daemon —
    the gated invariant CI diffs shard unions against. *)

module Spec := Kernel_corpus.Spec
module Json := Hfuse_profiler.Report.Json

type pair = { p_index : int; p_k1 : Spec.t; p_k2 : Spec.t; p_domain : string }

type row = {
  r_index : int;  (** pair index in canonical corpus order *)
  r_pair : string;  (** ["k1+k2"] *)
  r_domain : string;  (** same-kind pairs: the kind; else ["mixed"] *)
  r_status : string;  (** ["ok" | "rejected" | "failed"] *)
  r_digest : string;  (** MD5 hex of the search output; [""] unless ok *)
  r_native_ms : float;
  r_best_ms : float;
  r_speedup_pct : float;
  r_repaired : bool;
      (** the search admitted at least one partition via the repair
          engine (always [false] without [config.repair]) *)
  r_newly_fusable : bool;
      (** every admitted candidate came through repair — without it the
          verifier would have rejected the whole pair *)
}

type config = {
  arch : Gpusim.Arch.t;
  shards : int;  (** total shard count (>= 1) *)
  shard : int;  (** this invocation's shard in [[0, shards)] *)
  limit : int option;  (** run only the first N pairs of the corpus *)
  jobs : int;  (** local: pool workers; via-server: client threads *)
  size : int;  (** workload size for hand-written kernels *)
  top_k : int option;  (** analytical top-K pruning *)
  repair : bool;
      (** attempt diagnostic-driven repair of verifier-rejected
          partitions; admission stays behind the differential oracle *)
  via_server : string option;  (** socket path: drive a live daemon *)
  resume : bool;  (** journal rows; replay finished pairs on restart *)
  out_dir : string option;  (** write [.cu] repros of failed pairs *)
  settings : Hfuse_profiler.Settings.t;
  on_row : completed:int -> total:int -> row -> unit;  (** progress *)
}

val default_config : Hfuse_profiler.Settings.t -> config
(** One shard of everything, serial, size 1, no resume, under the given
    settings. *)

type result = {
  rows : row list;  (** this shard's rows, ascending index *)
  pairs_total : int;  (** corpus-wide pair count after [limit] *)
  executed : int;  (** rows computed in this invocation *)
  resumed : int;  (** rows replayed from the journal *)
  torn : int;  (** damaged journal rows dropped (their pairs re-ran) *)
  wall_s : float;
  telemetry : Hfuse_profiler.Report.telemetry_sums;
      (** per-section counter sums over every executed search *)
  corpus_digest : string;
  kernels : int;
}

val all_pairs : unit -> pair list
(** Every unordered pair in canonical order: kernels in
    {!Corpus.all_specs} order, (i, j) with i < j lexicographic,
    indexed from 0. *)

val shard_pairs : config -> pair list
(** The pairs this configuration runs: first [limit], then keep the
    indices congruent to [shard] mod [shards]. *)

val run_id : config -> string
(** Content-hashed identity of this shard's row journal.  [-j], cache
    temperature, chaos plans and [via_server] are deliberately
    excluded — rows are bit-identical across them, so a resume may
    change any of them. *)

val run : config -> result
(** Drive the shard.  With [resume], finished rows replay from the
    journal ([Checkpoint.default_dir/<run_id>.rows]) and candidate
    profiling rides the regular checkpoint journal, so kills resume
    without recomputation.  A daemon transport error aborts the run
    (raises [Failure]) rather than recording failed rows. *)

val report_json : config -> result -> Json.t
(** The fleet report: corpus identity, throughput, cache / trace-store
    / pool / fault tallies (with [unrecovered] = failed-row count),
    per-domain speedup distributions, and the full row list. *)
