(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section IV) on the simulated GPUs, plus ablations and
   Bechamel micro-benchmarks of the compiler itself.

     dune exec bench/main.exe              # everything (default scope)
     dune exec bench/main.exe -- fig7      # Figure 7 only
     dune exec bench/main.exe -- fig8      # Figure 8 only
     dune exec bench/main.exe -- fig9      # Figure 9 only
     dune exec bench/main.exe -- ablation  # dispatch-policy & partition ablations
     dune exec bench/main.exe -- micro     # compiler micro-benchmarks
     dune exec bench/main.exe -- fig7 --full   # 5-point ratio sweeps
     dune exec bench/main.exe -- fig7 -j 4 --cache   # parallel + cached search

   The default ratio sweep uses 3 points per pair (0.5x, 1x, 2x the
   representative size); [--full] uses the paper's 5.

   [-j N] fans the search's timing replays AND the figure measurement
   replays over N domains; [--cache] / [--no-cache] control the
   persistent profiling cache (default: the HFUSE_CACHE /
   HFUSE_CACHE_DIR environment, else off).  Figures are bit-identical
   for any -j and any cache temperature; a search-stats line
   (candidates profiled, cache hits, profiling wall time) and an
   engine-stats line (cycles/SM-steps skipped by the event-driven
   replay engine, warp-record reuse) follow every figure.

   [--json] additionally writes BENCH_figN.json next to the cwd — the
   machine-readable perf trajectory (per-pair time_ms and
   elapsed_cycles, wall-clock, cache stats, engine stats) that future
   changes diff instead of eyeballing logs.  [--pairs K1+K2[,K3+K4..]]
   restricts fig7/fig9 to the named corpus pairs (CI smoke runs one);
   [--trace-blocks N] widens the per-launch traced-block count.

   [--prune] / [--top-k K] enable the analytical cost model's phase-1.5
   pruning: candidates are ranked (statically, then refined by a few
   profiled probes) and only the top K ([Hfuse_costmodel.default_top_k]
   under --prune) are profiled.  Without either flag the search stays
   exhaustive; the model still scores every candidate and the search
   line / JSON report its rank agreement and worst regret.

   Fault tolerance: [--resume] without a cache profiles into the run's
   own cache root _hfuse_cache/journal/<run_id>/, where every result
   commits as it is produced, so a run killed mid-figure (crash,
   SIGKILL, Ctrl-C) restarted with the same flags answers from that
   root and recomputes only the remainder — bit-identically to an
   uninterrupted run.  With a cache enabled, the cache serves the
   resume.  [--fault SPEC] (or
   HFUSE_FAULT) arms the chaos harness, e.g.
   [--fault worker_crash:0.05,cache_corrupt:0.1,sim_hang:0.02]: faults
   are injected deterministically, recovered transparently, and tallied
   in [fault:]/[pool:] lines; figures are unchanged under any spec.

   [fleet] is the corpus-scale soak: every unordered pair of the fleet
   corpus (extended registry + curated fuzzer-generated kernels), each
   pair a full Fig. 6 search, deterministically sharded with
   [--shards N --shard I] and optionally cut to the first [--limit N]
   pairs.  [--via-server SOCKET] drives a live [hfuse serve] daemon
   with [-j] concurrent client threads instead of searching
   in-process; [--out DIR] writes .cu repros of failed pairs;
   [--resume] without a cache profiles into the shard's own root, so a
   killed shard's rerun answers every finished candidate from it.
   Per-pair rows are bit-identical across shard counts, [-j], cache
   temperature, chaos specs and daemon routing — the invariant
   [bench_gate --fleet] enforces; [--json] writes the BENCH_fleet.json
   it gates. *)

open Hfuse_profiler
open Kernel_corpus
module Fault = Hfuse_fault.Fault

let say fmt = Printf.printf (fmt ^^ "\n%!")

let section title =
  say "";
  say "%s" (String.make 74 '=');
  say "%s" title;
  say "%s" (String.make 74 '=')

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  say "[%s: %.1fs]" name (Unix.gettimeofday () -. t0);
  r

(* search parallelism / output shape, set by the CLI flags; the
   profiling knobs live in the one settings value built in [main] *)
let jobs = ref 1
let json_out = ref false
let pair_filter : (Spec.t * Spec.t) list option ref = ref None

(* --prune / --top-k K: phase-1.5 analytical pruning of the search.
   --top-k implies --prune; --prune alone uses the default K. *)
let default_top_k = Hfuse_costmodel.default_top_k
let top_k : int option ref = ref None

let resume = ref false
let raw_pairs = ref "all"
let full_ref = ref false

(* fleet subcommand state: sharding, corpus cut, daemon routing *)
let fleet_shards = ref 1
let fleet_shard = ref 0
let fleet_limit : int option ref = ref None
let fleet_size = ref 1
let fleet_server : string option ref = ref None
let fleet_out : string option ref = ref None
let fleet_repair = ref false

(* A resumable figure run's identity: the figures asked for and
   everything that shapes their outputs (the pairs spec, --full,
   --top-k; {!Settings.resumable} folds in --trace-blocks and the
   fuel).  -j and --fault are deliberately excluded: results are
   bit-identical across them, so a resume may change either. *)
let figure_run_parts (scope : string list) : string list =
  [
    "bench";
    (match scope with [] -> "all" | figs -> String.concat "," figs);
    !raw_pairs;
    (if !full_ref then "full" else "short");
    (match !top_k with
    | None -> "exhaustive"
    | Some k -> "top" ^ string_of_int k);
  ]

(* chaos observability: how many faults the figure's run injected and
   recovered (the figures themselves must not change under any spec) *)
let chaos_report ~(settings : Settings.t) ledger =
  if settings.fault <> None then begin
    say "[fault: %s]" (Fmt.str "%a" Fault.pp_tally ledger);
    say "[pool: %s]"
      (Fmt.str "%a" Hfuse_parallel.Pool.pp_tally
         (Hfuse_parallel.Pool.tally_of ledger))
  end

(* One figure under a ledger of its own: its wall time, its searches'
   counters (printed when the figure searches), the engine's work with
   pool workers' replays included, and under chaos its faults; [--json]
   writes them beside the rows as BENCH_<name>.json. *)
let run_figure ~(settings : Settings.t) ~cache ~searches name label run
    render json =
  let t0 = Unix.gettimeofday () in
  let rows, ledger = Ledger.run run in
  let wall = Unix.gettimeofday () -. t0 in
  say "[%s: %.1fs]" label wall;
  if searches then
    say "[search: %s]" (Fmt.str "%a" Runner.pp_search_stats ledger);
  say "[engine: %s]"
    (Fmt.str "%a" Gpusim.Timing.pp_engine_stats
       (Gpusim.Timing.engine_stats_of ledger));
  print_string (render rows);
  chaos_report ~settings ledger;
  if !json_out then begin
    let open Report.Json in
    let j =
      Obj
        [
          ("bench", Str name);
          ("wall_s", Float wall);
          ("jobs", Int !jobs);
          ("trace_blocks", Int settings.trace_blocks);
          ("cache", Report.json_of_cache cache);
          ("search", Report.json_of_section ledger "search");
          ("trace_store", Report.json_of_trace_store ledger);
          ("engine_stats", Report.json_of_section ledger "engine");
          ("rows", json rows);
        ]
    in
    let file = Printf.sprintf "BENCH_%s.json" name in
    let oc = open_out file in
    output_string oc (to_string j);
    close_out oc;
    say "[json: wrote %s]" file
  end

(* ------------------------------------------------------------------ *)
(* Figures                                                              *)
(* ------------------------------------------------------------------ *)

let multipliers ~full =
  if full then Experiment.default_multipliers else [ 0.5; 1.0; 2.0 ]

let run_fig7 ~settings ~cache ~full () =
  section "Figure 7: speedup vs execution-time ratio (16 pairs x 2 GPUs)";
  run_figure ~settings ~cache ~searches:true "fig7" "figure 7"
    (fun () ->
      Experiment.figure7 ~multipliers:(multipliers ~full) ~jobs:!jobs ~settings
        ~cache ?top_k:!top_k ?pairs:!pair_filter ())
    Report.figure7_to_string Report.figure7_json

let run_fig8 ~settings ~cache () =
  section "Figure 8: metrics of individual kernels";
  run_figure ~settings ~cache ~searches:false "fig8" "figure 8"
    (fun () -> Experiment.figure8 ~jobs:!jobs ~settings ~cache ())
    Report.figure8_to_string Report.figure8_json

let run_fig9 ~settings ~cache () =
  section "Figure 9: metrics of HFuse fused kernels (RegCap / N-RegCap)";
  run_figure ~settings ~cache ~searches:true "fig9" "figure 9"
    (fun () ->
      Experiment.figure9 ~jobs:!jobs ~settings ~cache ?top_k:!top_k
        ?pairs:!pair_filter ())
    Report.figure9_to_string Report.figure9_json

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md E5)                                             *)
(* ------------------------------------------------------------------ *)

let run_ablation ~settings ~cache () =
  section "Ablation A: block-dispatch policy (why parallel streams lose)";
  (* the native baseline under the real FIFO Grid-Management-Unit policy
     vs an idealised backfilling distributor *)
  let arch = Gpusim.Arch.gtx1080ti in
  let sizes = Experiment.representative_sizes ~settings ~cache arch in
  say "%-24s %14s %14s %9s" "pair" "FIFO (ms)" "Leftover (ms)" "overlap%";
  List.iter
    (fun (n1, n2) ->
      let s1 = Registry.find_exn n1 and s2 = Registry.find_exn n2 in
      let mem = Gpusim.Memory.create () in
      let c1 = Runner.configure mem s1 ~size:(Experiment.size_of sizes s1) in
      let c2 = Runner.configure mem s2 ~size:(Experiment.size_of sizes s2) in
      let specs =
        [
          Runner.spec_of ~settings c1 ~stream:0 ();
          Runner.spec_of ~settings c2 ~stream:1 ();
        ]
      in
      let fifo = Gpusim.Timing.run ~policy:Gpusim.Timing.Fifo arch specs in
      let leftover =
        Gpusim.Timing.run ~policy:Gpusim.Timing.Leftover arch specs
      in
      say "%-24s %14.4f %14.4f %8.1f%%"
        (n1 ^ "+" ^ n2)
        fifo.Gpusim.Timing.time_ms leftover.Gpusim.Timing.time_ms
        (100.0
        *. (1.0
           -. (leftover.Gpusim.Timing.time_ms /. fifo.Gpusim.Timing.time_ms))))
    [
      (* Batchnorm reaches full occupancy solo — nothing to backfill, so
         the policies coincide: streams cannot help a saturating kernel *)
      ("Batchnorm", "Hist");
      (* Upsample (56 regs) and Blake2B (64 regs) leave half an SM free:
         the idealised distributor overlaps, the real FIFO one cannot *)
      ("Upsample", "Hist");
      ("Blake2B", "Ethash");
    ];
  section "Ablation B: thread-space partition landscape (Batchnorm+Hist)";
  let s1 = Registry.find_exn "Batchnorm" and s2 = Registry.find_exn "Hist" in
  let mem = Gpusim.Memory.create () in
  let c1 = Runner.configure mem s1 ~size:(Experiment.size_of sizes s1) in
  let c2 = Runner.configure mem s2 ~size:(Experiment.size_of sizes s2) in
  let native =
    (Runner.native ~settings ~cache arch c1 c2).Gpusim.Timing.time_ms
  in
  let sr = Runner.search ~jobs:!jobs ~settings ~cache arch c1 c2 in
  say "%-12s %-10s %12s %10s" "partition" "regbound" "time (ms)" "speedup%";
  List.iter
    (fun (cand : Hfuse_core.Search.candidate) ->
      say "%5d/%-6d %-10s %12.4f %+9.1f%%" cand.fused.d1 cand.fused.d2
        (match cand.config.reg_bound with
        | None -> "-"
        | Some r -> string_of_int r)
        cand.time
        (Experiment.speedup ~native ~fused:cand.time))
    sr.all;
  let b = sr.best in
  say "best: %d/%d %s" b.fused.d1 b.fused.d2
    (match b.config.reg_bound with
    | None -> "no register bound"
    | Some r -> Printf.sprintf "register bound %d" r)

(* ------------------------------------------------------------------ *)
(* Fleet: corpus-scale sharded soak                                     *)
(* ------------------------------------------------------------------ *)

let run_fleet ~settings () =
  let module Fleet = Hfuse_fleet.Fleet in
  section
    (Printf.sprintf "Fleet: corpus-scale fusion-search soak (shard %d/%d)"
       !fleet_shard !fleet_shards);
  (* the fleet drives the verb engine, which derives cache/trace-store
     handles from the settings *)
  let progress_every = 25 in
  let on_row ~completed ~total (r : Fleet.row) =
    if r.Fleet.r_status <> "ok" then
      say "  [%d/%d] %s: %s" completed total r.Fleet.r_pair r.Fleet.r_status
    else if completed mod progress_every = 0 || completed = total then
      say "  [%d/%d] %s %+.1f%%" completed total r.Fleet.r_pair
        r.Fleet.r_speedup_pct
  in
  let cfg =
    {
      Fleet.arch = Gpusim.Arch.gtx1080ti;
      shards = !fleet_shards;
      shard = !fleet_shard;
      limit = !fleet_limit;
      jobs = !jobs;
      size = !fleet_size;
      top_k = !top_k;
      repair = !fleet_repair;
      via_server = !fleet_server;
      resume = !resume;
      out_dir = !fleet_out;
      settings;
      on_row;
    }
  in
  say "corpus digest %s%s%s" (Hfuse_fleet.Corpus.digest ())
    (match !fleet_limit with
    | None -> ""
    | Some n -> Printf.sprintf ", first %d pairs" n)
    (match !fleet_server with
    | None -> ""
    | Some s -> Printf.sprintf ", via daemon at %s" s);
  let r, ledger =
    Ledger.run (fun () -> timed "fleet" (fun () -> Fleet.run cfg))
  in
  let count st =
    List.length (List.filter (fun x -> x.Fleet.r_status = st) r.Fleet.rows)
  in
  let rows = List.length r.Fleet.rows in
  say "%d kernels, %d corpus pairs; shard ran %d rows: %d ok, %d rejected, \
       %d failed"
    r.Fleet.kernels r.Fleet.pairs_total rows (count "ok") (count "rejected")
    (count "failed");
  say "wall %.1fs, %.1f searches/min" r.Fleet.wall_s
    (if r.Fleet.wall_s > 0.0 then
       float_of_int rows /. r.Fleet.wall_s *. 60.0
     else 0.0);
  let tget = Report.telemetry_get r.Fleet.telemetry in
  if !fleet_repair then
    say "repair: %d attempted, %d admitted, %d unsound; %d rows repaired \
         (%d newly fusable)"
      (tget "search" "repair_attempted")
      (tget "search" "repaired")
      (tget "search" "repair_unsound")
      (List.length (List.filter (fun x -> x.Fleet.r_repaired) r.Fleet.rows))
      (List.length
         (List.filter (fun x -> x.Fleet.r_newly_fusable) r.Fleet.rows));
  let hits = tget "cache" "hits" and misses = tget "cache" "misses" in
  if hits + misses > 0 then
    say "cache: %d hits / %d misses (%.1f%% hit rate), %d stores, %d \
         quarantined"
      hits misses
      (100.0 *. float_of_int hits /. float_of_int (hits + misses))
      (tget "cache" "stores")
      (tget "cache" "quarantined");
  say "trace store: %d mem hits, %d disk hits, %d recorded"
    (tget "trace_store" "mem_hits")
    (tget "trace_store" "disk_hits")
    (tget "trace_store" "recorded");
  if tget "fault" "injected" > 0 || tget "pool" "retries" > 0 then
    say "fault: %d injected, %d recovered, %d unrecovered; pool: %d \
         retries, %d recovered"
      (tget "fault" "injected")
      (tget "fault" "recovered")
      (count "failed")
      (tget "pool" "retries")
      (tget "pool" "recovered");
  (* per-domain speedup distribution over ok rows *)
  let domains =
    List.sort_uniq compare (List.map (fun x -> x.Fleet.r_domain) r.Fleet.rows)
  in
  say "%-12s %6s %6s %9s %9s %9s" "domain" "pairs" "ok" "min%" "median%"
    "max%";
  List.iter
    (fun d ->
      let dr =
        List.filter (fun x -> x.Fleet.r_domain = d) r.Fleet.rows
      in
      let ok = List.filter (fun x -> x.Fleet.r_status = "ok") dr in
      let ss =
        List.map (fun x -> x.Fleet.r_speedup_pct) ok |> List.sort compare
      in
      match ss with
      | [] ->
          say "%-12s %6d %6d %9s %9s %9s" d (List.length dr) 0 "-" "-" "-"
      | _ ->
          let arr = Array.of_list ss in
          let n = Array.length arr in
          let median =
            if n mod 2 = 1 then arr.(n / 2)
            else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0
          in
          say "%-12s %6d %6d %+8.1f%% %+8.1f%% %+8.1f%%" d (List.length dr)
            n arr.(0) median arr.(n - 1))
    domains;
  chaos_report ~settings ledger;
  if !json_out then begin
    let file = Printf.sprintf "BENCH_fleet.json" in
    let oc = open_out file in
    output_string oc (Report.Json.to_string (Fleet.report_json cfg r));
    close_out oc;
    say "[json: wrote %s]" file
  end

(* ------------------------------------------------------------------ *)
(* Compiler micro-benchmarks (Bechamel)                                 *)
(* ------------------------------------------------------------------ *)

let run_micro ~settings () =
  section "Compiler micro-benchmarks (Bechamel; one Test.make per stage)";
  let open Bechamel in
  let open Toolkit in
  let bn = Registry.find_exn "Batchnorm" and hist = Registry.find_exn "Hist" in
  let mk_info (s : Spec.t) d =
    let mem = Gpusim.Memory.create () in
    let inst = s.instantiate mem ~size:2 in
    Hfuse_core.Kernel_info.with_block_dim (Spec.kernel_info s inst) d
  in
  let k1 = mk_info bn 896 and k2 = mk_info hist 128 in
  (* a native-pair replay: the hot loop the tentpole optimises *)
  let arch = Gpusim.Arch.gtx1080ti in
  let replay_specs =
    let mem = Gpusim.Memory.create () in
    let c1 = Runner.configure mem bn ~size:32 in
    let c2 = Runner.configure mem hist ~size:32 in
    [
      Runner.spec_of ~settings c1 ~stream:0 ();
      Runner.spec_of ~settings c2 ~stream:1 ();
    ]
  in
  (* the interpreter's yardsticks: the untraced full-grid launch fleet
     vetting makes of one generated kernel (fresh memory, as vetting
     binds it), and the traced single-block launches that record the
     Batchnorm and Hist solo traces at size 32 *)
  let vet_spec = (List.hd (Hfuse_fleet.Corpus.curated ())).spec in
  let vet_info =
    Hfuse_core.Kernel_info.normalized
      (Spec.kernel_info vet_spec
         (vet_spec.instantiate (Gpusim.Memory.create ()) ~size:1))
  in
  let record_launches =
    let mem = Gpusim.Memory.create () in
    List.map
      (fun s ->
        let c = Runner.configure mem s ~size:32 in
        fun () ->
          ignore
            (Gpusim.Launch.launch_info ~exec_blocks:1 mem c.runnable
               ~args:c.inst.args ~trace_blocks:1))
      [ bn; hist ]
  in
  let tests =
    [
      Test.make ~name:"parse corpus kernel"
        (Staged.stage (fun () -> ignore (Cuda.Parser.parse_kernel bn.source)));
      Test.make ~name:"typecheck corpus kernel"
        (let prog = Cuda.Parser.parse_program bn.source in
         Staged.stage (fun () -> Cuda.Typecheck.check_program prog));
      Test.make ~name:"normalize (inline+lift)"
        (let prog, fn = Cuda.Parser.parse_kernel bn.source in
         Staged.stage (fun () ->
             ignore (Hfuse_frontend.Inline.normalize_kernel prog fn)));
    ]
    (* the front end on the crypto kernels, whose sources are the
       largest of the paper's corpus (SHA256 is ~25 KB, ~12k tokens) *)
    @ List.concat_map
        (fun name ->
          let src = (Registry.find_exn name).source in
          let prog, fn = Cuda.Parser.parse_kernel src in
          [
            Test.make ~name:("parse " ^ name)
              (Staged.stage (fun () -> ignore (Cuda.Parser.parse_kernel src)));
            Test.make ~name:("normalize " ^ name)
              (Staged.stage (fun () ->
                   ignore (Hfuse_frontend.Inline.normalize_kernel prog fn)));
          ])
        [ "SHA256"; "Blake256"; "Blake2B" ]
    @ [
      Test.make ~name:"hfuse generate"
        (Staged.stage (fun () -> ignore (Hfuse_core.Hfuse.generate k1 k2)));
      Test.make ~name:"vfuse generate"
        (let k2' = Hfuse_core.Kernel_info.with_block_dim k2 896 in
         Staged.stage (fun () ->
             ignore (Hfuse_core.Vfuse.generate k1 k2')));
      Test.make ~name:"emit fused source"
        (let f = Hfuse_core.Hfuse.generate k1 k2 in
         Staged.stage (fun () -> ignore (Hfuse_core.Hfuse.to_source f)));
      Test.make ~name:"search (synthetic profile)"
        (Staged.stage (fun () ->
             ignore
               (Hfuse_core.Search.search
                  ~profile:
                    (List.map
                       (fun ((f : Hfuse_core.Hfuse.t),
                             (c : Hfuse_core.Search.config)) ->
                         float_of_int
                           (f.d1
                           + match c.reg_bound with Some r -> r | None -> 0)))
                  ~d0:1024 k1 k2)));
      Test.make ~name:"timing replay (native pair)"
        (Staged.stage (fun () ->
             ignore (Gpusim.Timing.run arch replay_specs)));
      Test.make ~name:"vetting launch (generated)"
        (Staged.stage (fun () ->
             let mem = Gpusim.Memory.create () in
             let inst = vet_spec.instantiate mem ~size:1 in
             ignore
               (Gpusim.Launch.launch_info mem vet_info ~args:inst.args
                  ~trace_blocks:0)));
      Test.make ~name:"record Batchnorm+Hist traces"
        (Staged.stage (fun () -> List.iter (fun f -> f ()) record_launches));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  say "%-28s %14s" "stage" "ns/run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let anl = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (t :: _) -> say "%-28s %14.0f" name t
          | _ -> say "%-28s %14s" name "n/a")
        anl)
    tests;
  (* engine self-profiling for one instrumented replay of the same pair *)
  let report, es = Gpusim.Timing.run_with_stats arch replay_specs in
  say "";
  say "replay engine stats (native pair, %d cycles):"
    report.Gpusim.Timing.elapsed_cycles;
  say "  %s" (Fmt.str "%a" Gpusim.Timing.pp_engine_stats es)

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let () =
  (* the run's one settings value: the environment, then the flags *)
  let settings =
    ref
      (try Settings.resolve ()
       with Fault.Invalid_spec msg ->
         Printf.eprintf "bench: %s\n" msg;
         exit 2)
  in
  Sys.catch_break true;
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  full_ref := full;
  let args = List.filter (fun a -> a <> "--full") args in
  (* -j N / --jobs N, --cache, --no-cache *)
  let rec parse_flags = function
    | ("-j" | "--jobs") :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := n
        | _ ->
            Printf.eprintf "bench: -j expects a positive integer, got %s\n" n;
            exit 2);
        parse_flags rest
    | "--cache" :: rest ->
        settings :=
          { !settings with cache_dir = Some (Settings.cache_root ()) };
        parse_flags rest
    | "--no-cache" :: rest ->
        settings := { !settings with cache_dir = None };
        parse_flags rest
    | "--json" :: rest ->
        json_out := true;
        parse_flags rest
    | "--trace-blocks" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> settings := { !settings with trace_blocks = n }
        | _ ->
            Printf.eprintf
              "bench: --trace-blocks expects a positive integer, got %s\n" n;
            exit 2);
        parse_flags rest
    | "--pairs" :: spec :: rest ->
        let parse_one s =
          match String.index_opt s '+' with
          | Some i ->
              let n1 = String.sub s 0 i
              and n2 = String.sub s (i + 1) (String.length s - i - 1) in
              (Registry.find_exn n1, Registry.find_exn n2)
          | None ->
              Printf.eprintf
                "bench: --pairs expects K1+K2[,K3+K4...], got %s\n" s;
              exit 2
        in
        raw_pairs := spec;
        pair_filter :=
          Some (List.map parse_one (String.split_on_char ',' spec));
        parse_flags rest
    | "--resume" :: rest ->
        resume := true;
        parse_flags rest
    | "--prune" :: rest ->
        if !top_k = None then top_k := Some default_top_k;
        parse_flags rest
    | "--top-k" :: n :: rest ->
        (match int_of_string_opt n with
        | Some k when k >= 1 -> top_k := Some k
        | _ ->
            Printf.eprintf "bench: --top-k expects a positive integer, got %s\n" n;
            exit 2);
        parse_flags rest
    | "--fault" :: spec :: rest ->
        (match Fault.plan_of_spec spec with
        | fault -> settings := { !settings with fault }
        | exception Fault.Invalid_spec msg ->
            Printf.eprintf "bench: --fault: %s\n" msg;
            exit 2);
        parse_flags rest
    | "--shards" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> fleet_shards := n
        | _ ->
            Printf.eprintf "bench: --shards expects a positive integer, got %s\n" n;
            exit 2);
        parse_flags rest
    | "--shard" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 0 -> fleet_shard := n
        | _ ->
            Printf.eprintf "bench: --shard expects a non-negative integer, got %s\n" n;
            exit 2);
        parse_flags rest
    | "--limit" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> fleet_limit := Some n
        | _ ->
            Printf.eprintf "bench: --limit expects a positive integer, got %s\n" n;
            exit 2);
        parse_flags rest
    | "--size" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> fleet_size := n
        | _ ->
            Printf.eprintf "bench: --size expects a positive integer, got %s\n" n;
            exit 2);
        parse_flags rest
    | "--via-server" :: socket :: rest ->
        fleet_server := Some socket;
        parse_flags rest
    | "--out" :: dir :: rest ->
        fleet_out := Some dir;
        parse_flags rest
    | "--repair" :: rest ->
        fleet_repair := true;
        parse_flags rest
    | a :: rest -> a :: parse_flags rest
    | [] -> []
  in
  let args = parse_flags args in
  (* --resume: a figure run without a cache profiles into its own root;
     the fleet names its own ({!Fleet.run_parts}) *)
  let settings = !settings in
  let settings =
    if !resume && args <> [ "fleet" ] then
      Settings.resumable settings ~parts:(figure_run_parts args)
    else settings
  in
  (* one cache handle for the whole run, so its counters span figures *)
  let cache = Settings.cache settings in
  let t0 = Unix.gettimeofday () in
  (try
     match args with
     | [] ->
         run_fig8 ~settings ~cache ();
         run_fig9 ~settings ~cache ();
         run_fig7 ~settings ~cache ~full ();
         run_ablation ~settings ~cache ();
         run_micro ~settings ()
     | [ "fig7" ] -> run_fig7 ~settings ~cache ~full ()
     | [ "fig8" ] -> run_fig8 ~settings ~cache ()
     | [ "fig9" ] -> run_fig9 ~settings ~cache ()
     | [ "ablation" ] -> run_ablation ~settings ~cache ()
     | [ "micro" ] -> run_micro ~settings ()
     | [ "fleet" ] -> run_fleet ~settings ()
     | other ->
         Printf.eprintf
           "unknown arguments: %s\n\
            usage: main.exe [fig7|fig8|fig9|ablation|micro|fleet] [--full] \
            [-j N] [--cache|--no-cache] [--json] [--pairs K1+K2[,..]] \
            [--trace-blocks N] [--resume] [--prune] [--top-k K] \
            [--fault SPEC] [--shards N --shard I] [--limit N] [--size N] \
            [--via-server SOCKET] [--out DIR] [--repair]\n"
           (String.concat " " other);
         exit 2
   with Sys.Break ->
     (* results commit by rename as they are produced; point at the
        resume path *)
     Printf.eprintf
       "\nbench: interrupted%s\n"
       (if !resume then
          "; profiled results saved — rerun with --resume to continue"
        else "; rerun with --resume to make interrupted runs resumable");
     exit 130);
  say "";
  say "total bench time: %.1fs" (Unix.gettimeofday () -. t0)
