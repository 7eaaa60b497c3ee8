(* The two-phase profiling search end to end: trace-cache keying (the
   packed-key collision regression), the persistent profile cache, and
   bit-identical results across worker counts and cache temperatures. *)

open Cuda
open Gpusim
open Kernel_corpus
module Runner = Hfuse_profiler.Runner
module Profile_cache = Hfuse_profiler.Profile_cache

let arch = Arch.gtx1080ti

(* Grid-strided synthetic kernels: work — and hence trace length and
   simulated time — scales with the workload size [n]. *)
let src name expr =
  Printf.sprintf
    {|
__global__ void %s(float* a, int n) {
  for (int i = blockIdx.x * blockDim.x + threadIdx.x; i < n;
       i += gridDim.x * blockDim.x) {
    a[i] = %s;
  }
}
|}
    name expr

let mk_spec name expr ~tunability ~native_block : Spec.t =
  let instantiate mem ~size =
    let count = max 1 size in
    let buf = Memory.alloc mem ~name:(name ^ ".a") ~elem:Ctype.Float ~count in
    Memory.fill_floats mem buf
      (Array.init count (fun i -> (float_of_int ((i mod 7) + 1)) *. 0.5));
    {
      Workload.args = [ Value.Ptr buf; Workload.iv size ];
      grid = 2;
      smem_dynamic = 0;
      outputs = [ ((name ^ ".a"), buf, count) ];
      check = (fun _ -> Ok ());
    }
  in
  {
    Spec.name;
    kind = Spec.Deep_learning;
    source = src name expr;
    regs = 32;
    native_block;
    tunability;
    default_size = 4;
    instantiate;
  }

(* fixed 32-thread kernels for the trace-key regression *)
let ta_fixed =
  mk_spec "ta" "a[i] * 2.0f" ~tunability:Hfuse_core.Kernel_info.Fixed
    ~native_block:(32, 1, 1)

let tb_fixed =
  mk_spec "tb" "a[i] + 1.0f" ~tunability:Hfuse_core.Kernel_info.Fixed
    ~native_block:(32, 1, 1)

(* tunable kernels for the search determinism / cache tests *)
let ta_tun =
  mk_spec "tc" "a[i] * 2.0f"
    ~tunability:(Hfuse_core.Kernel_info.Tunable { multiple_of = 32 })
    ~native_block:(256, 1, 1)

let tb_tun =
  mk_spec "td" "a[i] + 1.0f"
    ~tunability:(Hfuse_core.Kernel_info.Tunable { multiple_of = 32 })
    ~native_block:(256, 1, 1)

(* -- Trace-cache key collision (regression) ---------------------------- *)

let hfuse_time ~size1 ~size2 =
  let mem = Memory.create () in
  let c1 = Runner.configure mem ta_fixed ~size:size1 in
  let c2 = Runner.configure mem tb_fixed ~size:size2 in
  let f =
    Hfuse_core.Hfuse.generate
      (Hfuse_core.Kernel_info.with_block_dim c1.Runner.info 32)
      (Hfuse_core.Kernel_info.with_block_dim c2.Runner.info 32)
  in
  (Runner.hfuse_report ~settings:(Test_util.env_settings ()) arch c1 c2 f
     ~reg_bound:None)
    .Timing.time_ms

let test_trace_key_collision () =
  (* the old packed key folded the pair's sizes into
     [size1 * 1_000_003 + size2], so (2, 1) and (1, 1_000_004) mapped to
     the same entry (2_000_007) and the second pair silently reused the
     first pair's tiny trace.  With distinct keys the big workload must
     re-trace and run orders of magnitude longer. *)
  Runner.clear_cache ();
  let t_small = hfuse_time ~size1:2 ~size2:1 in
  let t_big = hfuse_time ~size1:1 ~size2:1_000_004 in
  Alcotest.(check bool)
    (Printf.sprintf "big pair re-traced (%g ms vs %g ms)" t_big t_small)
    true
    (t_big > t_small *. 10.0)

(* -- Profile_cache ------------------------------------------------------ *)

let tmp_cache_dir tag = Test_util.tmp_path ("cache_" ^ tag)

(* empty the versioned entry directory so each test run starts cold *)
let clear_cache_dir (cache : Profile_cache.t) =
  let dir = Profile_cache.dir cache in
  if dir <> "" && Sys.file_exists dir then
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if not (Sys.is_directory p) then Sys.remove p)
      (Sys.readdir dir)

let some_time = Alcotest.(option (float 0.0)) (* exact match *)

let mk_key ?(reg_bound = Some 32) () =
  Profile_cache.key ~arch:"GTX 1080 Ti" ~source:"__global__ void f() {}"
    ~d1:128 ~d2:896 ~grid:96 ~smem_dynamic:768 ~regs:36 ~reg_bound ~k1:"ta"
    ~size1:3 ~k2:"tb" ~size2:5 ~trace_blocks:1

let test_profile_cache_roundtrip () =
  let cache = Profile_cache.create ~dir:(tmp_cache_dir "roundtrip") () in
  clear_cache_dir cache;
  let key = mk_key () in
  Alcotest.check some_time "cold miss" None (Profile_cache.find cache ~key);
  (* a time with no short decimal representation must round-trip
     bit-for-bit through the hex-float entry format *)
  let t = 0.12345678901234567 /. 3.0 in
  Profile_cache.store cache ~key t;
  Alcotest.check some_time "bit-exact round trip" (Some t)
    (Profile_cache.find cache ~key);
  (* the register bound participates in the key *)
  let key' = mk_key ~reg_bound:None () in
  Alcotest.(check bool) "distinct keys" true (key <> key');
  Alcotest.check some_time "other key misses" None
    (Profile_cache.find cache ~key:key');
  Alcotest.(check int) "counters" 2 (Profile_cache.misses cache);
  Alcotest.(check int) "one hit" 1 (Profile_cache.hits cache);
  Alcotest.(check int) "one store" 1 (Profile_cache.stores cache)

let test_profile_cache_corrupt_entry () =
  let cache = Profile_cache.create ~dir:(tmp_cache_dir "corrupt") () in
  clear_cache_dir cache;
  let key = mk_key () in
  Profile_cache.store cache ~key 1.5;
  (* a torn/garbage entry must read as a miss, not an exception *)
  let path = Filename.concat (Profile_cache.dir cache) key in
  let oc = open_out path in
  output_string oc "not a float\n";
  close_out oc;
  Alcotest.check some_time "corrupt entry is a miss" None
    (Profile_cache.find cache ~key)

let test_profile_cache_disabled () =
  let cache = Profile_cache.disabled () in
  Alcotest.(check bool) "disabled" false (Profile_cache.enabled cache);
  let key = mk_key () in
  Profile_cache.store cache ~key 1.0;
  Alcotest.check some_time "never finds" None (Profile_cache.find cache ~key);
  Alcotest.(check int) "never stores" 0 (Profile_cache.stores cache)

(* -- Profile_cache: full-report entries --------------------------------- *)

(* finite floats with no short decimal representation: the %h entry
   format must reproduce every bit *)
let mk_report () : Timing.report =
  {
    Timing.elapsed_cycles = 123456;
    time_ms = 0.12345678901234567 /. 3.0;
    issued_slots = 9876;
    total_slots = 43210;
    issue_slot_util = 100.0 /. 3.0;
    mem_stall_slots = 11;
    sync_stall_slots = 22;
    other_stall_slots = 33;
    idle_slots = 44;
    mem_stall_pct = 2.0 /. 7.0;
    occupancy = 1.0 /. 9.0;
    kernels =
      [
        {
          Timing.k_label = "k one";
          k_elapsed_cycles = 5;
          k_issued = 6;
          k_blocks_per_sm = 7;
        };
        {
          Timing.k_label = "k2";
          k_elapsed_cycles = 8;
          k_issued = 9;
          k_blocks_per_sm = 10;
        };
      ];
  }

let mk_engine_stats () : Timing.engine_stats =
  {
    Timing.cycles_stepped = 1;
    cycles_skipped = 2;
    sm_steps = 3;
    sm_steps_skipped = 4;
    scan_skip_hits = 5;
    warp_allocs = 6;
    warp_reuses = 7;
    (* not persisted: a cached report's stats read them as 0 *)
    periods_forwarded = 0;
    cycles_forwarded = 0;
  }

let test_report_cache_roundtrip () =
  let cache = Profile_cache.create ~dir:(tmp_cache_dir "report") () in
  clear_cache_dir cache;
  let mem = Memory.create () in
  let c = Runner.configure mem ta_tun ~size:3 in
  let settings = Test_util.env_settings () in
  let specs = [ Runner.spec_of ~settings c ~stream:0 () ] in
  let key =
    Profile_cache.report_key ~arch:arch.Arch.name ~policy:"fifo" specs
  in
  Alcotest.(check bool)
    "cold miss" true
    (Profile_cache.find_report cache ~key = None);
  let entry = (mk_report (), mk_engine_stats ()) in
  Profile_cache.store_report cache ~key entry;
  Alcotest.(check bool)
    "bit-exact round trip" true
    (Profile_cache.find_report cache ~key = Some entry);
  (* the packed trace contents participate in the key: a different
     workload size re-traces and must map to a different entry *)
  let c' = Runner.configure mem ta_tun ~size:17 in
  let key' =
    Profile_cache.report_key ~arch:arch.Arch.name ~policy:"fifo"
      [ Runner.spec_of ~settings c' ~stream:0 () ]
  in
  Alcotest.(check bool) "trace contents keyed" true (key <> key');
  (* a torn/garbage entry must read as a miss, not an exception *)
  let oc = open_out (Filename.concat (Profile_cache.dir cache) key) in
  output_string oc "garbage\n";
  close_out oc;
  Alcotest.(check bool)
    "corrupt entry is a miss" true
    (Profile_cache.find_report cache ~key = None)

let test_run_many_report_cache () =
  let cache = Profile_cache.create ~dir:(tmp_cache_dir "run_many") () in
  clear_cache_dir cache;
  let mem = Memory.create () in
  let c1 = Runner.configure mem ta_tun ~size:3 in
  let c2 = Runner.configure mem tb_tun ~size:5 in
  let settings = Test_util.env_settings () in
  let runs =
    [|
      (arch, [ Runner.spec_of ~settings c1 ~stream:0 () ]);
      ( arch,
        [
          Runner.spec_of ~settings c1 ~stream:0 ();
          Runner.spec_of ~settings c2 ~stream:1 ();
        ] );
    |]
  in
  let uncached =
    Runner.run_many ~settings:{ settings with cache_dir = None } runs
  in
  let cold = Runner.run_many ~settings ~cache runs in
  Alcotest.(check int) "cold stores" 2 (Profile_cache.stores cache);
  let warm = Runner.run_many ~settings ~cache runs in
  Alcotest.(check int) "warm hits" 2 (Profile_cache.hits cache);
  Alcotest.(check bool) "warm reports bit-identical" true (warm = cold);
  Alcotest.(check bool) "cache never changes reports" true (uncached = cold)

(* A key repeated in one batch replays and stores once, and no entry
   waits on another's claim; the repeats count the replay's engine stats
   as any hit does, so the totals match an all-hit rerun. *)
let test_run_many_repeated_key () =
  let cache = Profile_cache.create ~dir:(tmp_cache_dir "run_many_dup") () in
  clear_cache_dir cache;
  Runner.clear_cache ();
  let mem = Memory.create () in
  let c1 = Runner.configure mem ta_tun ~size:3 in
  let c2 = Runner.configure mem tb_tun ~size:5 in
  let settings = Test_util.env_settings () in
  let solo = (arch, [ Runner.spec_of ~settings c1 ~stream:0 () ]) in
  let runs =
    [| solo; (arch, [ Runner.spec_of ~settings c2 ~stream:0 () ]); solo; solo |]
  in
  let cold, cold_l =
    Ledger.run (fun () -> Runner.run_many ~jobs:2 ~settings ~cache runs)
  in
  let warm, warm_l =
    Ledger.run (fun () -> Runner.run_many ~jobs:2 ~settings ~cache runs)
  in
  Alcotest.(check int) "one store per distinct key" 2
    (Profile_cache.stores cache);
  Alcotest.(check int) "no waits" 0
    (Ledger.get cold_l Hfuse_profiler.Trace_store.waits);
  Alcotest.(check bool) "repeats share the report" true
    (cold.(0) = cold.(2) && cold.(0) = cold.(3));
  Alcotest.(check bool) "warm reports bit-identical" true (warm = cold);
  Alcotest.(check bool) "engine totals match an all-hit rerun" true
    (Timing.engine_stats_of cold_l = Timing.engine_stats_of warm_l)

(* the representative-size probe resolves through the report tiers: a
   process with empty memo tiers answers it from a warm cache root *)
let test_rep_sizes_served_by_cache () =
  let dir = tmp_cache_dir "rep_sizes" in
  let cold = Profile_cache.create ~dir () in
  clear_cache_dir cold;
  Runner.clear_cache ();
  let sizes = Hfuse_profiler.Experiment.representative_sizes ~cache:cold arch in
  Runner.clear_cache ();
  let warm = Profile_cache.create ~dir () in
  let again = Hfuse_profiler.Experiment.representative_sizes ~cache:warm arch in
  Alcotest.(check (list (pair string int))) "same sizes" sizes again;
  Alcotest.(check int) "warm hits" 9 (Profile_cache.hits warm);
  Alcotest.(check int) "warm stores" 0 (Profile_cache.stores warm)

(* -- Runner.search: jobs / cache determinism ---------------------------- *)

let search_with ?stats ~settings ~jobs ~cache () =
  (* fresh memory and trace cache per run: each run re-traces from the
     same deterministic inputs, like independent processes would *)
  Runner.clear_cache ();
  let mem = Memory.create () in
  let c1 = Runner.configure mem ta_tun ~size:3 in
  let c2 = Runner.configure mem tb_tun ~size:5 in
  Runner.search ~jobs ~settings ?stats ~cache arch c1 c2

let search_tun = search_with ~settings:(Test_util.env_settings ())

let sig_of (r : Hfuse_core.Search.result) =
  List.map
    (fun (c : Hfuse_core.Search.candidate) ->
      ( c.fused.Hfuse_core.Hfuse.d1,
        c.fused.Hfuse_core.Hfuse.d2,
        c.config.Hfuse_core.Search.reg_bound,
        c.time ))
    r.all

let best_of (r : Hfuse_core.Search.result) =
  let b = r.best in
  ( b.fused.Hfuse_core.Hfuse.d1,
    b.fused.Hfuse_core.Hfuse.d2,
    b.config.Hfuse_core.Search.reg_bound,
    b.time )

let test_search_jobs_deterministic () =
  let nocache = Profile_cache.disabled () in
  let base = search_tun ~jobs:1 ~cache:nocache () in
  Alcotest.(check bool) "several partitions searched" true
    (List.length base.all >= 7);
  List.iter
    (fun jobs ->
      let r = search_tun ~jobs ~cache:(Profile_cache.disabled ()) () in
      Alcotest.(check bool)
        (Printf.sprintf "all candidates identical at -j %d" jobs)
        true
        (sig_of r = sig_of base);
      Alcotest.(check bool)
        (Printf.sprintf "best identical at -j %d" jobs)
        true
        (best_of r = best_of base))
    [ 2; 8 ]

let test_search_cache_warm_matches_cold () =
  let dir = tmp_cache_dir "search" in
  let cold_cache = Profile_cache.create ~dir () in
  clear_cache_dir cold_cache;
  let cold_stats = Runner.fresh_search_stats () in
  let cold = search_tun ~stats:cold_stats ~jobs:2 ~cache:cold_cache () in
  let n = List.length cold.all in
  Alcotest.(check int) "cold run profiles every candidate once" n
    cold_stats.Runner.profiled;
  (* the cost model's probes are profiled during ranking and stored;
     phase 2 then re-hits exactly those entries, so the cold run's hit
     count IS the probe count *)
  let probes = cold_stats.Runner.cache_hits in
  Alcotest.(check bool) "probes hit, not re-simulated" true
    (probes > 0 && probes < n);
  Alcotest.(check int) "every candidate stored once, plus two solo reports"
    (n + 2)
    (Profile_cache.stores cold_cache);
  (* a second handle on the same directory — as a rerun of the process
     would create — answers everything from disk, bit-identically *)
  let warm_cache = Profile_cache.create ~dir () in
  let warm_stats = Runner.fresh_search_stats () in
  let warm = search_tun ~stats:warm_stats ~jobs:4 ~cache:warm_cache () in
  Alcotest.(check bool) "warm results identical to cold" true
    (sig_of warm = sig_of cold);
  Alcotest.(check bool) "warm best identical to cold" true
    (best_of warm = best_of cold);
  Alcotest.(check int) "warm run profiles nothing" 0 warm_stats.Runner.profiled;
  Alcotest.(check int) "warm run all cache hits (probes again + phase 2)"
    (n + probes) warm_stats.Runner.cache_hits;
  Alcotest.(check int) "disk hits include the two solo reports"
    (n + probes + 2)
    (Profile_cache.hits warm_cache)

(* -- crash-safe cache: quarantine + recompute --------------------------- *)

let corrupt_on_disk path =
  (* flip a byte in the middle of the committed entry *)
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  let i = n / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x55));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_cache_quarantine () =
  let cache = Profile_cache.create ~dir:(tmp_cache_dir "quarantine") () in
  clear_cache_dir cache;
  let qdir =
    Filename.concat (Filename.dirname (Profile_cache.dir cache)) "quarantine"
  in
  if Sys.file_exists qdir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat qdir f))
      (Sys.readdir qdir);
  let key = mk_key () in
  let t = 0.12345678901234567 /. 3.0 in
  Profile_cache.store cache ~key t;
  let path = Filename.concat (Profile_cache.dir cache) key in
  (* a truncated entry (torn write) is quarantined and reads as a miss *)
  let oc = open_out_bin path in
  output_string oc "hfuse-cache v2 0123";
  close_out oc;
  Alcotest.check some_time "truncated entry is a miss" None
    (Profile_cache.find cache ~key);
  Alcotest.(check int) "one quarantined" 1 (Profile_cache.corrupt cache);
  Alcotest.(check bool) "entry moved aside" false (Sys.file_exists path);
  Alcotest.(check bool) "entry in quarantine" true
    (Sys.file_exists (Filename.concat qdir key));
  (* re-store and bit-flip: a checksum failure is also quarantined *)
  Profile_cache.store cache ~key t;
  corrupt_on_disk path;
  Alcotest.check some_time "bit-flipped entry is a miss" None
    (Profile_cache.find cache ~key);
  Alcotest.(check int) "two quarantined" 2 (Profile_cache.corrupt cache);
  Alcotest.(check bool) "flipped entry moved aside" false
    (Sys.file_exists path);
  (* recompute path: a fresh store over the quarantined key heals the
     cache and the value round-trips bit-exactly again *)
  Profile_cache.store cache ~key t;
  Alcotest.check some_time "healed entry round-trips" (Some t)
    (Profile_cache.find cache ~key)

let test_run_many_recomputes_corrupted () =
  let dir = tmp_cache_dir "heal" in
  let cache = Profile_cache.create ~dir () in
  clear_cache_dir cache;
  let mem = Memory.create () in
  let c1 = Runner.configure mem ta_tun ~size:3 in
  let c2 = Runner.configure mem tb_tun ~size:5 in
  let settings = Test_util.env_settings () in
  let runs =
    [|
      (arch, [ Runner.spec_of ~settings c1 ~stream:0 () ]);
      ( arch,
        [
          Runner.spec_of ~settings c1 ~stream:0 ();
          Runner.spec_of ~settings c2 ~stream:1 ();
        ] );
    |]
  in
  let cold = Runner.run_many ~settings ~cache runs in
  (* corrupt every committed entry on disk *)
  Array.iter
    (fun f -> corrupt_on_disk (Filename.concat (Profile_cache.dir cache) f))
    (Sys.readdir (Profile_cache.dir cache));
  let healing = Profile_cache.create ~dir () in
  let healed = Runner.run_many ~settings ~cache:healing runs in
  Alcotest.(check bool) "recompute identical to cold run" true (healed = cold);
  Alcotest.(check int) "both entries quarantined" 2
    (Profile_cache.corrupt healing);
  Alcotest.(check int) "both entries recomputed and re-stored" 2
    (Profile_cache.stores healing);
  (* the healed cache answers from disk again *)
  let warm = Profile_cache.create ~dir () in
  Alcotest.(check bool) "healed cache hits" true
    (Runner.run_many ~settings ~cache:warm runs = cold);
  Alcotest.(check int) "two disk hits" 2 (Profile_cache.hits warm)

(* -- Resume: a run's own cache root -------------------------------------- *)

(* A resumed no-cache run's settings: [settings] (default: the
   environment's), rooted at the run's own root. *)
let resumable ?(settings = Test_util.env_settings ()) parts =
  Hfuse_profiler.Settings.resumable { settings with cache_dir = None } ~parts

(* the same, on an emptied root *)
let fresh_resumable ?settings parts =
  let s = resumable ?settings parts in
  Test_util.rm_rf (Option.get s.cache_dir);
  s

let test_search_resume_identity () =
  let baseline = search_tun ~jobs:2 ~cache:(Profile_cache.disabled ()) () in
  let n = List.length baseline.all in
  let settings = fresh_resumable [ "test"; "resume" ] in
  let search ~jobs =
    let stats = Runner.fresh_search_stats () in
    let r, ledger =
      Ledger.run (fun () ->
          search_with ~stats ~settings ~jobs
            ~cache:(Hfuse_profiler.Settings.cache settings) ())
    in
    (r, stats, ledger)
  in
  let first, first_stats, _ = search ~jobs:2 in
  (* the first run hits its own root once per probe (the model profiles
     them in phase 1.5, phase 2 finds them) *)
  let probes = first_stats.Runner.cache_hits in
  Alcotest.(check bool) "resumable run identical to plain run" true
    (sig_of first = sig_of baseline);
  (* a resumed run, in a process with empty memory tiers, answers every
     candidate and trace from the root: nothing is re-profiled or
     re-recorded and the result is bit-identical *)
  let resumed, stats, ledger = search ~jobs:4 in
  Alcotest.(check bool) "resumed results identical" true
    (sig_of resumed = sig_of baseline);
  Alcotest.(check bool) "resumed best identical" true
    (best_of resumed = best_of baseline);
  Alcotest.(check int) "resume profiles nothing" 0 stats.Runner.profiled;
  Alcotest.(check int) "every candidate and probe answered" (n + probes)
    stats.Runner.cache_hits;
  Alcotest.(check int) "resume records no trace" 0
    (Ledger.get ledger Hfuse_profiler.Trace_store.recorded)

(* -- run ids fold in the simulator fuel budget --------------------------- *)

(* A resumed run's settings under [sim_fuel] and [trace_blocks]. *)
let resumed_under ~sim_fuel ~trace_blocks parts =
  resumable
    ~settings:{ (Test_util.env_settings ()) with sim_fuel; trace_blocks }
    parts

(* Store a time under resumed run [a]'s emptied root, and ask resumed
   run [b]'s root for it. *)
let answer_across (a : Hfuse_profiler.Settings.t)
    (b : Hfuse_profiler.Settings.t) =
  Test_util.rm_rf (Option.get b.cache_dir);
  Test_util.rm_rf (Option.get a.cache_dir);
  let cache = Hfuse_profiler.Settings.cache in
  Profile_cache.store (cache a) ~key:"cand" 1.0;
  Profile_cache.find (cache b) ~key:"cand"

let test_run_id_sim_fuel () =
  (* a run under one fuel budget must be invisible to a resume under
     another: the same simulation can legitimately produce different
     times (a watchdogged candidate completes under a bigger budget),
     so sharing its root would be wrong, not just stale *)
  let resumed ~sim_fuel =
    resumed_under ~sim_fuel ~trace_blocks:1 [ "fuel"; "t" ]
  in
  let a = resumed ~sim_fuel:1_000 and b = resumed ~sim_fuel:2_000 in
  Alcotest.(check bool) "different fuel, different root" true
    (a.cache_dir <> b.cache_dir);
  (* the root's name is the MD5 of the parts and the folded-in fuel and
     trace-block count, NUL-separated: pinned, so a resume finds the
     roots earlier versions wrote *)
  Alcotest.(check (option string)) "same fuel, same root"
    (Some "_hfuse_cache/journal/7c0fd0ade08dab8566e3a645f7153042")
    (resumed ~sim_fuel:1_000).cache_dir;
  Alcotest.check some_time "changed fuel: no stale answer" None
    (answer_across a b);
  Alcotest.check some_time "same fuel: the run's own root answers" (Some 1.0)
    (answer_across a a)

(* -- model_eval: the top-k window verdict -------------------------------- *)

let check_verdict = Alcotest.(check (option (pair int (float 1e-9))))

let test_model_eval_window () =
  let scores = [ 1.; 2.; 3.; 4. ] and times = [ 10.; 1.; 5.; 8. ] in
  (* k=1: the window is the model's single pick, which is 10x off *)
  check_verdict "k=1 pays the model's full regret" (Some (0, 900.))
    (Runner.model_eval ~k:1 ~scores ~times ());
  (* k=2: the window now contains the true best; regret vanishes *)
  check_verdict "k=2 window contains the optimum" (Some (1, 0.))
    (Runner.model_eval ~k:2 ~scores ~times ());
  (* score ties break to the earlier candidate, like the pruner *)
  check_verdict "ties keep search order" (Some (0, 250.))
    (Runner.model_eval ~k:1 ~scores:[ 5.; 5. ] ~times:[ 7.; 2. ] ());
  (* a failed profile (infinite time) can never be the window's pick *)
  check_verdict "failed candidates fall out of the window" (Some (1, 0.))
    (Runner.model_eval ~k:1 ~scores:[ 1.; 2. ]
       ~times:[ Float.infinity; 3. ] ());
  (* no verdict without a finite (score, time) pair *)
  check_verdict "no finite pair" None
    (Runner.model_eval ~scores:[ Float.nan ] ~times:[ 1. ] ());
  check_verdict "empty" None (Runner.model_eval ~scores:[] ~times:[] ())

(* -- report JSON: non-finite floats -------------------------------------- *)

module Report = Hfuse_profiler.Report
module Json = Report.Json

let test_json_nonfinite_null () =
  (* regression: Float.infinity used to print as a bare [inf], which no
     JSON parser (including ours) accepts — a single failed candidate
     poisoned the whole bench artifact *)
  Alcotest.(check string) "infinity serializes as null" "null"
    (String.trim (Json.to_string (Json.Float Float.infinity)));
  Alcotest.(check string) "nan serializes as null" "null"
    (String.trim (Json.to_string (Json.Float Float.nan)));
  Alcotest.(check string) "negative infinity too" "null"
    (String.trim (Json.to_string (Json.Float Float.neg_infinity)));
  (* the parser accepts the null back, and the bench gate's numeric
     coercion reads it as infinite — an infinite regret must FAIL the
     gate, not vanish *)
  (match Json.of_string "null" with
  | Ok v ->
      Alcotest.(check (option (float 0.))) "null reads as infinite"
        (Some Float.infinity) (Json.to_float_opt v)
  | Error e -> Alcotest.failf "null must parse: %s" e);
  match Json.of_string {|{"t": null, "u": 3.5}|} with
  | Ok obj ->
      Alcotest.(check (option (float 0.))) "null member" (Some Float.infinity)
        (Option.bind (Json.member "t" obj) Json.to_float_opt);
      Alcotest.(check (option (float 0.))) "finite member" (Some 3.5)
        (Option.bind (Json.member "u" obj) Json.to_float_opt)
  | Error e -> Alcotest.failf "object must parse: %s" e

let test_json_stats_roundtrip_nonfinite () =
  (* a search whose every window candidate failed leaves an infinite
     max-regret in the stats; the serialized artifact must still be
     machine-readable end to end *)
  let (), ledger =
    Ledger.run (fun () ->
        let module C = Runner.Counters in
        List.iter
          (fun c -> Ledger.add c 3)
          [ C.profiled; C.failed; C.ranked; C.traced ];
        Ledger.add C.rank_total 1;
        Ledger.add_float C.max_regret_pct Float.infinity;
        Ledger.add_float C.profile_wall_s Float.nan)
  in
  let s = Json.to_string (Report.json_of_section ledger "search") in
  match Json.of_string s with
  | Ok obj ->
      Alcotest.(check (option (float 0.))) "infinite regret survives"
        (Some Float.infinity)
        (Option.bind (Json.member "max_regret_pct" obj) Json.to_float_opt);
      Alcotest.(check (option (float 0.))) "nan wall survives as infinite"
        (Some Float.infinity)
        (Option.bind (Json.member "profile_wall_s" obj) Json.to_float_opt);
      Alcotest.(check (option (float 0.))) "finite fields unharmed"
        (Some 3.)
        (Option.bind (Json.member "profiled" obj) Json.to_float_opt)
  | Error e -> Alcotest.failf "stats JSON must parse: %s" e

(* -- chaos: injected faults leave results bit-identical ------------------ *)

module Fault = Hfuse_fault.Fault

(* a ledger's count over every fault kind *)
let faults count ledger =
  List.fold_left (fun n k -> n + count ledger k) 0 Fault.all_kinds

let test_search_chaos_identity () =
  let baseline = search_tun ~jobs:2 ~cache:(Profile_cache.disabled ()) () in
  let fault =
    Fault.plan_of_spec "worker_crash:1.0,sim_hang:0.2,cache_corrupt:1.0,seed:3"
  in
  let settings = Hfuse_profiler.Settings.resolve ~fault () in
  let dir = tmp_cache_dir "chaos" in
  let cache = Profile_cache.create ~dir ?fault () in
  clear_cache_dir cache;
  let faulted, ledger =
    Ledger.run (fun () -> search_with ~settings ~jobs:4 ~cache ())
  in
  (* regression: under injected worker crashes the stats JSON must stay
     machine-readable whatever the float fields hold *)
  (match
     Json.of_string (Json.to_string (Report.json_of_section ledger "search"))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "faulted stats JSON must parse: %s" e);
  Alcotest.(check bool) "faulted candidates identical to baseline" true
    (sig_of faulted = sig_of baseline);
  Alcotest.(check bool) "faulted best identical to baseline" true
    (best_of faulted = best_of baseline);
  Alcotest.(check bool) "faults were injected" true
    (faults Fault.injected ledger > 0);
  Alcotest.(check bool) "faults were recovered" true
    (faults Fault.recovered ledger > 0);
  (* cache_corrupt:1.0 truncated every committed entry; a warm run
     quarantines them all, recomputes, and still matches the baseline *)
  let warm_cache = Profile_cache.create ~dir ?fault () in
  let warm = search_with ~settings ~jobs:2 ~cache:warm_cache () in
  Alcotest.(check bool) "quarantine-and-recompute identical" true
    (sig_of warm = sig_of baseline);
  Alcotest.(check bool) "corrupted entries quarantined" true
    (Profile_cache.corrupt warm_cache > 0)

(* -- Trace binary codec -------------------------------------------------- *)

module Trace_store = Hfuse_profiler.Trace_store
module Settings = Hfuse_profiler.Settings
module Trace = Gpusim.Trace
module Pool = Hfuse_parallel.Pool

(* build a trace with deliberate capacity slack after [len]: the codec
   must serialize only the live prefix *)
let mk_trace codes payloads =
  let pad a = Array.append a (Array.make 3 max_int) in
  { Trace.codes = pad codes; payloads = pad payloads; len = Array.length codes }

let mk_blocks () : Trace.block array =
  [|
    [|
      mk_trace [| 0; 1; 2 |] [| 5; -7; 1 lsl 40 |];
      mk_trace [| 3 |] [| -(1 lsl 40) |];
    |];
    [| mk_trace [||] [||] |];
  |]

let test_trace_codec_roundtrip () =
  let blocks = mk_blocks () in
  let enc = Trace.encode_blocks blocks in
  (match Trace.decode_blocks enc with
  | None -> Alcotest.fail "decode rejected its own encoding"
  | Some dec ->
      Alcotest.(check int) "block count" 2 (Array.length dec);
      Alcotest.(check int) "warp count" 2 (Array.length dec.(0));
      Alcotest.(check int) "live prefix only" 3 dec.(0).(0).Trace.len;
      Alcotest.(check int) "negative payload survives" (-7)
        dec.(0).(0).Trace.payloads.(1);
      Alcotest.(check int) "wide payload survives" (1 lsl 40)
        dec.(0).(0).Trace.payloads.(2);
      (* decode . encode is a fixed point: re-encoding reproduces every
         byte, which is what makes warmed stores bit-identical *)
      Alcotest.(check string) "re-encode byte-identical" enc
        (Trace.encode_blocks dec));
  (* malformed inputs answer None, never raise or over-allocate *)
  List.iter
    (fun (label, s) ->
      Alcotest.(check bool) label true (Trace.decode_blocks s = None))
    [
      ("empty input", "");
      ("garbage input", "not a trace");
      ("truncated input", String.sub enc 0 (String.length enc - 1));
      ("trailing bytes", enc ^ "\x00");
    ]

(* -- Trace_store: key derivation ----------------------------------------- *)

let test_trace_store_keys () =
  let base ?(arch = "1080Ti") ?(sim_fuel = 1000) ?(trace_blocks = 1)
      ?(ident = [ "hfuse"; "ta"; "3"; "tb"; "5" ]) () =
    Trace_store.keys ~arch ~sim_fuel ~trace_blocks ~ident
  in
  let k = base () in
  Alcotest.(check bool) "deterministic" true (base () = k);
  (* fuel: a trace recorded under generous fuel must not mask a timeout
     under a tight one — both tiers invalidate *)
  let kf = base ~sim_fuel:2000 () in
  Alcotest.(check bool) "fuel changes mem digest" true (kf.Trace_store.mem <> k.Trace_store.mem);
  Alcotest.(check bool) "fuel changes disk digest" true
    (kf.Trace_store.disk <> k.Trace_store.disk);
  let kb = base ~trace_blocks:2 () in
  Alcotest.(check bool) "trace_blocks changes mem digest" true
    (kb.Trace_store.mem <> k.Trace_store.mem);
  Alcotest.(check bool) "trace_blocks changes disk digest" true
    (kb.Trace_store.disk <> k.Trace_store.disk);
  let ki = base ~ident:[ "hfuse"; "ta"; "4"; "tb"; "5" ] () in
  Alcotest.(check bool) "identity changes both digests" true
    (ki.Trace_store.mem <> k.Trace_store.mem
    && ki.Trace_store.disk <> k.Trace_store.disk);
  (* arch: traces are arch-independent, so the memory tier shares them
     across a two-arch sweep; persistent entries split defensively *)
  let ka = base ~arch:"V100" () in
  Alcotest.(check string) "arch keeps the mem digest" k.Trace_store.mem
    ka.Trace_store.mem;
  Alcotest.(check bool) "arch changes the disk digest" true
    (ka.Trace_store.disk <> k.Trace_store.disk)

(* -- Trace_store: disk round trip, quarantine, LRU ----------------------- *)

let clear_trace_root root =
  let rm d =
    if Sys.file_exists d then
      Array.iter
        (fun f ->
          let p = Filename.concat d f in
          if not (Sys.is_directory p) then Sys.remove p)
        (Sys.readdir d)
  in
  let traces = Filename.concat root "traces" in
  rm (Filename.concat traces Trace_store.version);
  rm (Filename.concat traces "quarantine")

let sf_key tag =
  Trace_store.keys ~arch:"1080Ti" ~sim_fuel:1000 ~trace_blocks:1
    ~ident:[ "test"; tag ]

(* A trace through the store's two tiers, as [Runner] fetches one:
   the memory tier's get-or-compute, whose computation is the disk
   tier, else the recording. *)
let get_traces store ~(key : Trace_store.key) record =
  Trace_store.get_or_compute Traces ~key:key.mem (fun () ->
      Trace_store.load_or_record store ~key record)

(* [get_traces] thunks: one that fails the test if it runs (the store
   must answer), and one that counts its runs (the store must
   record) *)
let must_hit what () = Alcotest.fail what

let counting runs blocks () =
  incr runs;
  blocks

let test_trace_store_roundtrip () =
  let root = tmp_cache_dir "traces_rt" in
  clear_trace_root root;
  Trace_store.clear_memory ();
  let store = Trace_store.create ~dir:root () in
  let key = sf_key "rt" in
  let blocks = mk_blocks () in
  let runs = ref 0 in
  let (), ledger =
    Ledger.run @@ fun () ->
  ignore (get_traces store ~key (counting runs blocks));
  Alcotest.(check int) "cold miss records" 1 !runs;
  (* a second handle over a cold memory tier — as a fresh process would
     be — answers from disk, byte-identically *)
  Trace_store.clear_memory ();
  let store' = Trace_store.create ~dir:root () in
  let got =
    get_traces store' ~key (must_hit "warm disk lookup missed")
  in
  Alcotest.(check string) "disk round trip byte-identical"
    (Trace.encode_blocks blocks)
    (Trace.encode_blocks got);
  (* ...and the disk hit was promoted into the memory tier *)
  ignore
    (get_traces store' ~key
       (must_hit "promotion into the memory tier failed"))
  in
  let n = Ledger.get ledger in
  Alcotest.(check int) "one recording" 1 (n Trace_store.recorded);
  Alcotest.(check int) "one disk store" 1 (n Trace_store.stores);
  Alcotest.(check int) "one disk hit" 1 (n Trace_store.disk_hits);
  Alcotest.(check int) "one memory hit" 1 (n Trace_store.mem_hits)

let test_trace_store_quarantine () =
  let root = tmp_cache_dir "traces_q" in
  clear_trace_root root;
  Trace_store.clear_memory ();
  let store = Trace_store.create ~dir:root () in
  let key = sf_key "quarantine" in
  let blocks = mk_blocks () in
  ignore (get_traces store ~key (fun () -> blocks));
  let path = Filename.concat (Trace_store.dir store) key.Trace_store.disk in
  corrupt_on_disk path;
  Trace_store.clear_memory ();
  (* the corrupt entry is a miss: it is moved aside before the
     re-recording runs, and re-recording heals the store *)
  let runs = ref 0 and moved_aside = ref false in
  let (), ledger =
    Ledger.run (fun () ->
        ignore
          (get_traces store ~key (fun () ->
               moved_aside := not (Sys.file_exists path);
               counting runs blocks ())))
  in
  Alcotest.(check int) "corrupt entry is a miss" 1 !runs;
  Alcotest.(check int) "one quarantined" 1
    (Ledger.get ledger Trace_store.quarantined);
  Alcotest.(check bool) "entry moved aside" true !moved_aside;
  Alcotest.(check bool) "entry kept for post-mortem" true
    (Sys.file_exists
       (Filename.concat
          (Filename.concat (Filename.concat root "traces") "quarantine")
          key.Trace_store.disk));
  Trace_store.clear_memory ();
  let got =
    get_traces store ~key (must_hit "healed entry missed")
  in
  Alcotest.(check string) "healed entry byte-identical"
    (Trace.encode_blocks blocks)
    (Trace.encode_blocks got)

(* Four pool tasks want one absent key: the computation runs once and
   every caller shares its value.  Then a claimant whose computation
   raises releases its claim: one waiter computes instead and the
   rest share that.  One input per kind: a trace through the disk tier
   (a disabled one), a replay report, a candidate time. *)
let single_flight (type v) (kind : v Trace_store.kind) ~key
    ~(compute : unit -> v) (v : v) =
  let calls = Atomic.make 0 in
  let race thunk =
    Pool.with_pool 4 (fun p ->
        Pool.map_isolated p
          (fun _ ->
            Trace_store.get_or_compute kind ~key (fun () ->
                let n = Atomic.fetch_and_add calls 1 in
                (* widen the race window: waiters must block on the
                   claim, not compute *)
                Unix.sleepf 0.02;
                thunk n))
          [| 0; 1; 2; 3 |])
  in
  let shared what results =
    Array.iter
      (function
        | Ok got -> Alcotest.(check bool) what true (got = v)
        | Error _ -> ())
      results
  in
  let results = race (fun _ -> compute ()) in
  Alcotest.(check int) "exactly one computation ran" 1 (Atomic.get calls);
  Alcotest.(check bool) "no caller failed" true
    (Array.for_all Result.is_ok results);
  shared "every caller shares the value" results;
  Trace_store.clear_memory ();
  Atomic.set calls 0;
  let results =
    race (fun n -> if n = 0 then failwith "claimant fails" else compute ())
  in
  Alcotest.(check int) "the failed claim is computed once more" 2
    (Atomic.get calls);
  Alcotest.(check int) "only the failed claimant fails" 1
    (Array.fold_left
       (fun acc r -> if Result.is_error r then acc + 1 else acc)
       0 results);
  shared "the rest share the second computation" results;
  Trace_store.clear_memory ()

let test_trace_store_single_flight () =
  Trace_store.clear_memory ();
  let store = Trace_store.disabled () in
  let key = sf_key "single_flight" in
  let blocks = mk_blocks () in
  let (), ledger =
    Ledger.run (fun () ->
        single_flight Traces ~key:key.mem
          ~compute:(fun () ->
            Trace_store.load_or_record store ~key (fun () -> blocks))
          blocks)
  in
  Alcotest.(check int) "store saw one recording per run" 2
    (Ledger.get ledger Trace_store.recorded);
  let report = (mk_report (), mk_engine_stats ()) in
  single_flight Report ~key:"r-single-flight" ~compute:(fun () -> report)
    report;
  single_flight Time ~key:"single-flight" ~compute:(fun () -> 1.25) 1.25

(* A claim wait is the waiter's: a claimant's computation blocks on a
   latch while a waiter on another domain, under its own ledger, wants
   the same key.  The claimant's ledger counts the recording, the
   waiter's the wait, its blocked seconds and the shared hit. *)
let test_claim_wait_is_the_waiters () =
  Trace_store.clear_memory ();
  let store = Trace_store.disabled () in
  let key = sf_key "claim_wait" in
  let blocks = mk_blocks () in
  let claimed = Atomic.make false
  and waiting = Atomic.make false
  and latch = Atomic.make false in
  let spin flag = while not (Atomic.get flag) do Domain.cpu_relax () done in
  let claimant =
    Domain.spawn (fun () ->
        snd
          (Ledger.run (fun () ->
               ignore
                 (get_traces store ~key (fun () ->
                      Atomic.set claimed true;
                      spin latch;
                      blocks)))))
  in
  spin claimed;
  let waiter =
    Domain.spawn (fun () ->
        snd
          (Ledger.run (fun () ->
               Atomic.set waiting true;
               ignore
                 (get_traces store ~key
                    (must_hit "the waiter computed a claimed key")))))
  in
  spin waiting;
  (* the waiter is a lock and a table probe away from blocking *)
  Unix.sleepf 0.1;
  Atomic.set latch true;
  let claimant = Domain.join claimant and waiter = Domain.join waiter in
  Trace_store.clear_memory ();
  let n = Ledger.get in
  Alcotest.(check int) "the claimant recorded" 1
    (n claimant Trace_store.recorded);
  Alcotest.(check int) "the claimant waited on nobody" 0
    (n claimant Trace_store.waits);
  Alcotest.(check int) "the waiter recorded nothing" 0
    (n waiter Trace_store.recorded);
  Alcotest.(check int) "the waiter waited once" 1 (n waiter Trace_store.waits);
  Alcotest.(check bool) "the waiter's blocked time counts" true
    (Ledger.get_float waiter Trace_store.wait_s > 0.0);
  Alcotest.(check int) "the waiter shared the claimant's trace" 1
    (n waiter Trace_store.merges)

let test_trace_store_lru_eviction () =
  let root = tmp_cache_dir "traces_lru" in
  clear_trace_root root;
  Trace_store.clear_memory ();
  let store = Trace_store.create ~dir:root () in
  let blocks = mk_blocks () in
  let keys = List.map (fun i -> sf_key (Printf.sprintf "lru%d" i)) [ 1; 2; 3 ] in
  Fun.protect ~finally:(fun () ->
      Trace_store.set_mem_limit_override None;
      Trace_store.clear_memory ())
  @@ fun () ->
  (* a 1-byte bound: every insertion evicts its predecessor, but the
     just-inserted entry always survives (a search can keep the trace
     it is about to replay) *)
  Trace_store.set_mem_limit_override (Some 1);
  let runs = ref 0 in
  let (), ledger =
    Ledger.run (fun () ->
        List.iter
          (fun key -> ignore (get_traces store ~key (counting runs blocks)))
          keys)
  in
  Alcotest.(check int) "every key recorded" 3 !runs;
  Alcotest.(check int) "bound holds at one entry" 1 (Trace_store.mem_entries ());
  Alcotest.(check int) "two evictions" 2
    (Ledger.get ledger Trace_store.evictions);
  (* an evicted key re-fetches from disk, byte-identically *)
  let got =
    get_traces store ~key:(List.hd keys)
      (must_hit "evicted entry lost (disk refetch missed)")
  in
  Alcotest.(check string) "refetched entry byte-identical"
    (Trace.encode_blocks blocks)
    (Trace.encode_blocks got)

(* One table holds every kind: a kind mismatch on a key is a miss,
   inserting another kind under a key replaces the entry, and under a
   bound the least recently used entry goes first, whatever its kind. *)
let test_memory_tier_kinds () =
  let open Trace_store in
  clear_memory ();
  Fun.protect ~finally:(fun () ->
      set_mem_limit_override None;
      clear_memory ())
  @@ fun () ->
  let add k ~key v = ignore (get_or_compute k ~key (Fun.const v)) in
  add Time ~key:"k" 1.5;
  Alcotest.(check bool) "a report lookup misses a time" true
    (find_memo Report ~key:"k" = None);
  Alcotest.(check bool) "a trace lookup misses a time" true
    (find_memo Traces ~key:"k" = None);
  Alcotest.(check (option (float 0.))) "the time answers" (Some 1.5)
    (find_memo Time ~key:"k");
  Alcotest.(check int) "a time costs its key plus 8 bytes" 9 (mem_bytes ());
  let blocks = mk_blocks () in
  add Traces ~key:"k" blocks;
  Alcotest.(check int) "another kind replaces the entry" 1 (mem_entries ());
  Alcotest.(check bool) "the replaced time is gone" true
    (find_memo Time ~key:"k" = None);
  Alcotest.(check int) "a trace costs its key plus its blocks"
    (1 + Trace.blocks_bytes blocks)
    (mem_bytes ());
  clear_memory ();
  (* three 10-byte entries under a 25-byte bound: touching "aa" leaves
     "bb" the least recently used *)
  set_mem_limit_override (Some 25);
  let (), ledger =
    Ledger.run (fun () ->
        add Time ~key:"aa" 1.;
        add Time ~key:"bb" 2.;
        ignore (find_memo Time ~key:"aa");
        add Time ~key:"cc" 3.)
  in
  Alcotest.(check int) "bound holds" 20 (mem_bytes ());
  Alcotest.(check bool) "least recently used evicted" true
    (find_memo Time ~key:"bb" = None);
  Alcotest.(check bool) "touched and newest kept" true
    (find_memo Time ~key:"aa" <> None && find_memo Time ~key:"cc" <> None);
  Alcotest.(check int) "the counters count trace evictions only" 0
    (Ledger.get ledger evictions)

(* A warm search answers its candidate traces from disk through the
   batch lookup.  Each such disk hit is an insertion and evicts to the
   settings' bound, as a fresh recording does — a real [trace_mem_mb]
   bound here, not the test hook. *)
let test_disk_hits_respect_bound () =
  let root = tmp_cache_dir "traces_bound" in
  clear_trace_root root;
  let search ~trace_mem_mb =
    Runner.clear_cache ();
    let settings =
      Settings.resolve ~trace_mem_mb ~cache_dir:(Some root) ~fault:None ()
    in
    let mem = Memory.create () in
    let c1 = Runner.configure mem (Registry.find_exn "Maxpool") ~size:128 in
    let c2 = Runner.configure mem (Registry.find_exn "Upsample") ~size:128 in
    ( Runner.search ~settings ~cache:(Profile_cache.disabled ()) arch c1 c2,
      Option.value (Settings.trace_limit_bytes settings) ~default:max_int )
  in
  let cold, _ = search ~trace_mem_mb:0 in
  let unbounded = Trace_store.mem_bytes () in
  let (warm, bound), ledger = Ledger.run (fun () -> search ~trace_mem_mb:1) in
  Alcotest.(check bool)
    (Printf.sprintf "the unbounded tier outgrows the bound (%d bytes)"
       unbounded)
    true (unbounded > bound);
  Alcotest.(check int) "warm run records nothing" 0
    (Ledger.get ledger Trace_store.recorded);
  Alcotest.(check bool) "warm run hits disk" true
    (Ledger.get ledger Trace_store.disk_hits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "tier within the bound (%d bytes)"
       (Trace_store.mem_bytes ()))
    true
    (Trace_store.mem_bytes () <= bound);
  Alcotest.(check bool) "bounded warm results identical" true
    (sig_of warm = sig_of cold);
  Runner.clear_cache ()

(* A search whose every candidate fails raises, and counts each failed
   candidate once.  Under a fuel of 10 every fused recording of the pair
   trips the watchdog: the 6 probes fail in the probe batch, and the
   full batch takes their known failures without requesting their 3
   trace keys, warning or counting again; its other 8 candidates merge
   onto 4 keys. *)
let test_degraded_search_counts_once () =
  Runner.clear_cache ();
  let settings =
    Settings.resolve ~sim_fuel:10 ~cache_dir:None ~fault:None ()
  in
  let mem = Memory.create () in
  let c1 = Runner.configure mem (Registry.find_exn "Batchnorm") ~size:1 in
  let c2 = Runner.configure mem (Registry.find_exn "Hist") ~size:1 in
  let ledger = Ledger.create () in
  Alcotest.check_raises "every candidate failed"
    (Runner.All_candidates_failed
       "every candidate of Batchnorm + Hist failed to profile")
    (fun () ->
      Ledger.within (Some ledger) (fun () ->
          ignore (Runner.search ~jobs:2 ~settings arch c1 c2)));
  Alcotest.(check int) "each failed candidate counted once" 14
    (Ledger.get ledger Runner.Counters.failed);
  Alcotest.(check int) "no failed probe's trace requested again" 7
    (Ledger.get ledger Runner.Counters.trace_merged);
  Runner.clear_cache ()

(* -- Runner.search over the trace store ---------------------------------- *)

let search_traced ?stats ~fault ~jobs ~dir () =
  Runner.clear_cache ();
  let settings = Settings.resolve ~cache_dir:(Some dir) ~fault () in
  let mem = Memory.create () in
  let c1 = Runner.configure mem ta_tun ~size:3 in
  let c2 = Runner.configure mem tb_tun ~size:5 in
  Runner.search ~jobs ~settings ?stats ~cache:(Profile_cache.disabled ()) arch
    c1 c2

let test_search_trace_store_warm_identity () =
  let baseline = search_tun ~jobs:1 ~cache:(Profile_cache.disabled ()) () in
  let root = tmp_cache_dir "traces_search" in
  clear_trace_root root;
  let cold_stats = Runner.fresh_search_stats () in
  let cold =
    search_traced ~stats:cold_stats ~fault:None ~jobs:2 ~dir:root ()
  in
  Alcotest.(check bool) "store never changes results" true
    (sig_of cold = sig_of baseline);
  Alcotest.(check bool) "cold run records traces" true
    (cold_stats.Runner.traced > 0);
  Alcotest.(check int) "cold run hits nothing" 0 cold_stats.Runner.trace_hits;
  (* register-bound variants of one partition share a trace key: the
     batch dedups them instead of recording per candidate *)
  Alcotest.(check bool) "batch dedup merged candidates" true
    (cold_stats.Runner.trace_merged > 0);
  (* [search_traced] clears the in-process tiers, so this rerun answers
     from the persistent store alone — like a fresh process would *)
  let warm_stats = Runner.fresh_search_stats () in
  let warm =
    search_traced ~stats:warm_stats ~fault:None ~jobs:4 ~dir:root ()
  in
  Alcotest.(check bool) "warm results identical to cold" true
    (sig_of warm = sig_of cold);
  Alcotest.(check bool) "warm best identical" true (best_of warm = best_of cold);
  Alcotest.(check int) "warm run records nothing" 0 warm_stats.Runner.traced;
  Alcotest.(check int) "warm run all store hits" cold_stats.Runner.traced
    warm_stats.Runner.trace_hits;
  (* an LRU bound tight enough to evict continuously still reproduces
     the same results (evict-then-refetch identity) *)
  Fun.protect ~finally:(fun () -> Trace_store.set_mem_limit_override None)
  @@ fun () ->
  Trace_store.set_mem_limit_override (Some 1);
  let bounded = search_traced ~fault:None ~jobs:2 ~dir:root () in
  Alcotest.(check bool) "bounded store identical results" true
    (sig_of bounded = sig_of cold)

let test_search_trace_chaos_heal () =
  let baseline = search_tun ~jobs:2 ~cache:(Profile_cache.disabled ()) () in
  let fault = Fault.plan_of_spec "cache_corrupt:1.0,seed:5" in
  let root = tmp_cache_dir "traces_chaos" in
  clear_trace_root root;
  (* every committed trace entry is torn by the chaos hook; lookups
     quarantine and re-record, and the search never notices *)
  let cold, cold_ledger =
    Ledger.run (fun () -> search_traced ~fault ~jobs:2 ~dir:root ())
  in
  Alcotest.(check bool) "chaos cold identical to baseline" true
    (sig_of cold = sig_of baseline);
  Alcotest.(check bool) "trace corruption injected" true
    (Fault.injected cold_ledger Cache_corrupt > 0);
  let warm, ledger =
    Ledger.run (fun () -> search_traced ~fault ~jobs:2 ~dir:root ())
  in
  Alcotest.(check bool) "chaos warm identical to baseline" true
    (sig_of warm = sig_of baseline);
  Alcotest.(check bool) "torn entries quarantined" true
    (Ledger.get ledger Trace_store.quarantined > 0);
  Alcotest.(check bool) "quarantined entries re-recorded" true
    (Ledger.get ledger Trace_store.recorded > 0);
  Alcotest.(check bool) "recoveries counted" true
    (Fault.recovered ledger Cache_corrupt > 0)

(* -- run ids fold in the traced-block count ------------------------------- *)

let test_run_id_trace_blocks () =
  (* same bug class as the fuel fix: profiled times are a function of
     how many blocks were traced, so a run at one width must not share
     its root with a resume at another *)
  let resumed ~trace_blocks =
    resumed_under ~sim_fuel:3_000_000 ~trace_blocks [ "tb"; "t" ]
  in
  let a = resumed ~trace_blocks:1 and b = resumed ~trace_blocks:4 in
  Alcotest.(check bool) "different width, different root" true
    (a.cache_dir <> b.cache_dir);
  Alcotest.(check (option string)) "same width, same root"
    (Some "_hfuse_cache/journal/8a50d80443494692f5fca253c5b4cf18")
    (resumed ~trace_blocks:1).cache_dir;
  Alcotest.check some_time "changed width: no stale answer" None
    (answer_across a b)

let suite =
  [
    Alcotest.test_case "trace-key size-pair collision (regression)" `Quick
      test_trace_key_collision;
    Alcotest.test_case "profile cache round trip" `Quick
      test_profile_cache_roundtrip;
    Alcotest.test_case "profile cache corrupt entry" `Quick
      test_profile_cache_corrupt_entry;
    Alcotest.test_case "profile cache disabled" `Quick
      test_profile_cache_disabled;
    Alcotest.test_case "report cache round trip" `Quick
      test_report_cache_roundtrip;
    Alcotest.test_case "run_many report cache" `Quick
      test_run_many_report_cache;
    Alcotest.test_case "run_many replays a repeated key once" `Quick
      test_run_many_repeated_key;
    Alcotest.test_case "size probe served by the cache" `Quick
      test_rep_sizes_served_by_cache;
    Alcotest.test_case "search determinism across -j" `Quick
      test_search_jobs_deterministic;
    Alcotest.test_case "warm cache reproduces cold run" `Quick
      test_search_cache_warm_matches_cold;
    Alcotest.test_case "corrupted entries quarantined" `Quick
      test_cache_quarantine;
    Alcotest.test_case "run_many heals a corrupted cache" `Quick
      test_run_many_recomputes_corrupted;
    Alcotest.test_case "resumed search is bit-identical" `Quick
      test_search_resume_identity;
    Alcotest.test_case "run id folds in the fuel budget" `Quick
      test_run_id_sim_fuel;
    Alcotest.test_case "model_eval window verdict" `Quick
      test_model_eval_window;
    Alcotest.test_case "JSON non-finite floats become null" `Quick
      test_json_nonfinite_null;
    Alcotest.test_case "stats JSON round-trips non-finite fields" `Quick
      test_json_stats_roundtrip_nonfinite;
    Alcotest.test_case "chaos run is bit-identical" `Quick
      test_search_chaos_identity;
    Alcotest.test_case "trace codec round trip" `Quick
      test_trace_codec_roundtrip;
    Alcotest.test_case "trace store key derivation" `Quick
      test_trace_store_keys;
    Alcotest.test_case "trace store disk round trip" `Quick
      test_trace_store_roundtrip;
    Alcotest.test_case "trace store quarantines torn entries" `Quick
      test_trace_store_quarantine;
    Alcotest.test_case "trace recording is single-flight" `Quick
      test_trace_store_single_flight;
    Alcotest.test_case "a claim wait counts for the waiter" `Quick
      test_claim_wait_is_the_waiters;
    Alcotest.test_case "trace store LRU eviction and refetch" `Quick
      test_trace_store_lru_eviction;
    Alcotest.test_case "memory tier kinds and recency" `Quick
      test_memory_tier_kinds;
    Alcotest.test_case "disk hits evict to the settings' bound" `Quick
      test_disk_hits_respect_bound;
    Alcotest.test_case "a degraded search counts each failure once" `Quick
      test_degraded_search_counts_once;
    Alcotest.test_case "warm trace store reproduces cold search" `Quick
      test_search_trace_store_warm_identity;
    Alcotest.test_case "chaos-torn trace store heals" `Quick
      test_search_trace_chaos_heal;
    Alcotest.test_case "run id folds in trace blocks" `Quick
      test_run_id_trace_blocks;
  ]
