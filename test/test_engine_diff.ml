(* Differential validation of the event-driven {!Gpusim.Timing} engine
   against the frozen {!Gpusim.Timing_legacy} reference.  Both engines
   replay the SAME physical trace arrays, and every report field must
   match — ints exactly, floats bitwise — on corpus workloads and on
   randomized multi-kernel launches (streams, spill, partial barriers).
   A final test pins the pooled figure measurement: -j 1 and -j 4 must
   produce the same Figure 9 row. *)

open Gpusim
open Hfuse_profiler

let arch = Arch.gtx1080ti

let to_legacy (s : Timing.launch_spec) : Timing_legacy.launch_spec =
  {
    (* shares [s]'s physical trace arrays: identical inputs by
       construction *)
    Timing_legacy.label = s.Timing.label;
    block_traces = s.Timing.block_traces;
    grid = s.Timing.grid;
    threads_per_block = s.Timing.threads_per_block;
    regs = s.Timing.regs;
    spill = s.Timing.spill;
    smem = s.Timing.smem;
    stream = s.Timing.stream;
  }

(* Names of the report fields that differ (empty = bit-identical). *)
let diff (n : Timing.report) (l : Timing_legacy.report) : string list =
  let fb = Int64.bits_of_float in
  let kernels_eq =
    List.length n.Timing.kernels = List.length l.Timing_legacy.kernels
    && List.for_all2
         (fun (a : Timing.kernel_metrics) (b : Timing_legacy.kernel_metrics) ->
           a.Timing.k_label = b.Timing_legacy.k_label
           && a.Timing.k_elapsed_cycles = b.Timing_legacy.k_elapsed_cycles
           && a.Timing.k_issued = b.Timing_legacy.k_issued
           && a.Timing.k_blocks_per_sm = b.Timing_legacy.k_blocks_per_sm)
         n.Timing.kernels l.Timing_legacy.kernels
  in
  List.filter_map
    (fun (name, ok) -> if ok then None else Some name)
    [
      ("elapsed_cycles", n.Timing.elapsed_cycles = l.Timing_legacy.elapsed_cycles);
      ("time_ms", fb n.Timing.time_ms = fb l.Timing_legacy.time_ms);
      ("issued_slots", n.Timing.issued_slots = l.Timing_legacy.issued_slots);
      ("total_slots", n.Timing.total_slots = l.Timing_legacy.total_slots);
      ( "issue_slot_util",
        fb n.Timing.issue_slot_util = fb l.Timing_legacy.issue_slot_util );
      ( "mem_stall_slots",
        n.Timing.mem_stall_slots = l.Timing_legacy.mem_stall_slots );
      ( "sync_stall_slots",
        n.Timing.sync_stall_slots = l.Timing_legacy.sync_stall_slots );
      ( "other_stall_slots",
        n.Timing.other_stall_slots = l.Timing_legacy.other_stall_slots );
      ("idle_slots", n.Timing.idle_slots = l.Timing_legacy.idle_slots);
      ("mem_stall_pct", fb n.Timing.mem_stall_pct = fb l.Timing_legacy.mem_stall_pct);
      ("occupancy", fb n.Timing.occupancy = fb l.Timing_legacy.occupancy);
      ("kernels", kernels_eq);
    ]

let run_both ?(policy = Timing.Fifo) (a : Arch.t)
    (specs : Timing.launch_spec list) =
  let lpolicy =
    match policy with
    | Timing.Fifo -> Timing_legacy.Fifo
    | Timing.Leftover -> Timing_legacy.Leftover
  in
  let n =
    try Ok (Timing.run ~policy a specs) with Timing.Timing_error m -> Error m
  in
  let l =
    try Ok (Timing_legacy.run ~policy:lpolicy a (List.map to_legacy specs))
    with Timing_legacy.Timing_error m -> Error m
  in
  (n, l)

let check_specs ?policy ctx (a : Arch.t) (specs : Timing.launch_spec list) =
  match run_both ?policy a specs with
  | Ok n, Ok l -> (
      match diff n l with
      | [] -> ()
      | ms ->
          Alcotest.failf "%s: report fields differ from legacy: %s" ctx
            (String.concat ", " ms))
  | Error a, Error b -> Alcotest.(check string) (ctx ^ ": same error") b a
  | Ok _, Error m ->
      Alcotest.failf "%s: legacy raised (%s) but the new engine succeeded" ctx m
  | Error m, Ok _ ->
      Alcotest.failf "%s: new engine raised (%s) but legacy succeeded" ctx m

(* -- synthetic launches (same helpers as test_timing) ------------------ *)

let mk_trace (instrs : Instr.t list) : Trace.t =
  let t = Trace.create () in
  List.iter (Trace.push t) instrs;
  t

let alus n = List.init n (fun _ -> Instr.Alu)

let spec ?(label = "t") ?(grid = 1) ?(threads = 32) ?(regs = 32) ?(spill = 0)
    ?(smem = 0) ?(stream = 0) (warp_instrs : Instr.t list list) :
    Timing.launch_spec =
  {
    Timing.label;
    block_traces = [| Array.of_list (List.map mk_trace warp_instrs) |];
    grid;
    threads_per_block = threads;
    regs;
    spill;
    smem;
    stream;
  }

let test_synthetic_corpus () =
  (* hand-picked launches covering every stall class and structural pipe *)
  check_specs "alu chain" arch [ spec [ alus 120 ] ];
  check_specs "mixed pipes" arch
    [
      spec ~threads:128 ~grid:4
        [
          alus 20 @ [ Instr.Ld_global (8, 4) ] @ alus 30;
          [ Instr.Ld_shared 2; Instr.St_shared 1 ] @ alus 40;
          [ Instr.Sfu; Instr.Falu; Instr.Falu ] @ alus 25;
          [ Instr.St_global 4 ] @ alus 10 @ [ Instr.Atom_shared 3 ];
        ];
    ];
  check_specs "full barrier" arch
    [
      spec ~threads:64
        [ alus 200 @ [ Instr.Bar (0, 64) ] @ alus 5;
          alus 10 @ [ Instr.Bar (0, 64) ] @ alus 5 ];
    ];
  check_specs "partial barrier" arch
    [
      spec ~threads:96
        [
          alus 5 @ [ Instr.Bar (1, 64) ] @ alus 5;
          alus 90 @ [ Instr.Bar (1, 64) ];
          alus 3;
        ];
    ];
  check_specs "spill + smem occupancy" arch
    [ spec ~grid:12 ~threads:512 ~regs:96 ~spill:24 ~smem:16384
        (List.init 16 (fun i -> alus (50 + (7 * i)))) ];
  check_specs "two streams fifo" arch
    [
      spec ~label:"a" ~grid:16 ~threads:1024 ~stream:0
        (List.init 32 (fun _ -> alus 150));
      spec ~label:"b" ~grid:6 ~threads:256 ~stream:1
        (List.init 8 (fun _ -> [ Instr.Ld_global (4, 0) ] @ alus 40));
    ];
  check_specs ~policy:Timing.Leftover "two streams leftover" arch
    [
      spec ~label:"a" ~grid:16 ~threads:1024 ~stream:0
        (List.init 32 (fun _ -> alus 150));
      spec ~label:"b" ~grid:6 ~threads:256 ~stream:1
        (List.init 8 (fun _ -> alus 30));
    ];
  check_specs "volta fp32" Arch.v100 [ spec [ List.init 80 (fun _ -> Instr.Falu) ] ];
  (* both engines must refuse identically *)
  check_specs "deadlock" arch [ spec [ [ Instr.Bar (2, 64) ] ] ];
  (* the reference notices the deadlock only once the shared-memory
     pipe releases *)
  check_specs "deadlock behind a busy pipe" arch
    [ spec ~threads:64 [ [ Instr.St_shared 32 ]; [ Instr.Bar (0, 64) ] ] ];
  check_specs "misfit" arch [ spec ~threads:1024 ~regs:255 [ alus 1 ] ]

(* -- corpus workloads -------------------------------------------------- *)

let corpus_pair ctx (a : Arch.t) n1 n2 ~size1 ~size2 =
  let s1 = Kernel_corpus.Registry.find_exn n1
  and s2 = Kernel_corpus.Registry.find_exn n2 in
  let mem = Memory.create () in
  let c1 = Runner.configure mem s1 ~size:size1 in
  let c2 = Runner.configure mem s2 ~size:size2 in
  let settings = Test_util.env_settings () in
  let spec c = Runner.spec_of ~settings c in
  check_specs (ctx ^ ": solo1") a [ spec c1 ~stream:0 () ];
  check_specs (ctx ^ ": native") a
    [ spec c1 ~stream:0 (); spec c2 ~stream:1 () ];
  match Runner.naive_hfuse c1 c2 with
  | None -> ()
  | Some f ->
      let traces = Runner.hfuse_traces ~settings c1 c2 f in
      check_specs (ctx ^ ": hfused") a
        [ Runner.hfuse_spec f ~reg_bound:None ~traces ]

let test_corpus_pairs () =
  corpus_pair "Batchnorm+Hist/1080Ti" arch "Batchnorm" "Hist" ~size1:8 ~size2:8;
  corpus_pair "Batchnorm+Hist/V100" Arch.v100 "Batchnorm" "Hist" ~size1:8
    ~size2:8;
  corpus_pair "Upsample+Hist/1080Ti" arch "Upsample" "Hist" ~size1:8 ~size2:8;
  corpus_pair "Blake2B+Ethash/1080Ti" arch "Blake2B" "Ethash" ~size1:8 ~size2:8

(* -- randomized launches ----------------------------------------------- *)

let gen_instr : Instr.t QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      (8, return Instr.Alu);
      (2, return Instr.Falu);
      (1, return Instr.Sfu);
      (1, return Instr.Shfl);
      ( 3,
        pair (int_bound 6) (int_bound 6) >|= fun (m, h) ->
        if m = 0 && h = 0 then Instr.Ld_global (1, 0) else Instr.Ld_global (m, h)
      );
      (1, int_range 1 6 >|= fun s -> Instr.St_global s);
      (1, int_range 1 4 >|= fun d -> Instr.Ld_shared d);
      (1, int_range 1 4 >|= fun d -> Instr.St_shared d);
      (1, int_range 1 3 >|= fun d -> Instr.Atom_shared d);
      (1, return Instr.Ld_local);
      (1, return Instr.St_local);
      (1, return Instr.Branch);
    ]

(* One random kernel: 1-8 warps of random work; optionally a full-block
   barrier on every warp and a partial barrier over the first k warps
   (every participant reaches it, so the launch always terminates).
   A third of the grids span one to several waves and some kernels
   trace two blocks, so kernel boundaries and wave tails fall inside a
   dispatch and split the engine's SM classes.  With [~waves:true] the
   kernel has 8 to 32 warps and its grid spans 10 to 14 waves on either
   arch: about a third of such launches, most of them of one traced
   block, repeat long enough for the engine to fast-forward whole
   periods. *)
let gen_kernel ?(waves = false) (idx : int) : Timing.launch_spec QCheck.Gen.t =
  let open QCheck.Gen in
  (if waves then int_range 8 32 else int_range 1 8) >>= fun n_warps ->
  frequency [ (2, int_range 1 6); (1, int_range 7 120) ] >>= fun grid ->
  frequency [ (3, return 1); (1, return 2) ] >>= fun n_blocks ->
  oneofl [ 32; 40; 64; 96 ] >>= fun regs ->
  oneofl [ 0; 0; 0; 12; 24 ] >>= fun spill ->
  oneofl [ 0; 0; 8192 ] >>= fun smem ->
  int_bound 2 >>= fun stream ->
  bool >>= fun full_bar ->
  bool >>= fun partial_bar ->
  int_range 1 n_warps >>= fun k ->
  int_range 10 14 >>= fun n_waves ->
  int_bound 100 >>= fun extra ->
  let threads = n_warps * 32 in
  let per_sm (a : Arch.t) ~regs =
    Hfuse_core.Occupancy.blocks_per_sm (Arch.sm_limits a) ~regs ~threads ~smem
  in
  (* a wave-spanning kernel fits, at 32 registers if need be *)
  let regs = if waves && per_sm arch ~regs = 0 then 32 else regs in
  let grid, n_blocks =
    if not waves then (grid, n_blocks)
    else
      let wave (a : Arch.t) = a.Arch.sms * per_sm a ~regs in
      let per_wave = max (wave arch) (wave Arch.v100) in
      ((n_waves * per_wave) + (extra * per_wave / 100), n_blocks)
  in
  let block =
    list_repeat n_warps (list_size (int_bound 30) gen_instr) >|= fun warps ->
    let warps =
      if full_bar then List.map (fun w -> w @ [ Instr.Bar (0, threads) ]) warps
      else warps
    in
    let warps =
      if partial_bar then
        List.mapi
          (fun i w -> if i < k then w @ [ Instr.Bar (1, k * 32) ] else w)
          warps
      else warps
    in
    Array.of_list (List.map mk_trace warps)
  in
  list_repeat n_blocks block >|= fun blocks ->
  {
    (spec ~label:(Printf.sprintf "k%d" idx) ~grid ~threads ~regs ~spill ~smem
       ~stream [])
    with
    Timing.block_traces = Array.of_list blocks;
  }

(* one to three random kernels *)
let gen_mixed : Timing.launch_spec list QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 1 3 >>= fun n ->
  let rec go i acc =
    if i = n then return (List.rev acc)
    else gen_kernel i >>= fun s -> go (i + 1) (s :: acc)
  in
  go 0 []

(* a wave-spanning kernel, then up to two random kernels *)
let gen_waves : Timing.launch_spec list QCheck.Gen.t =
  let open QCheck.Gen in
  gen_kernel ~waves:true 0 >>= fun w ->
  int_bound 2 >>= fun n ->
  let rec go i acc =
    if i > n then return (List.rev acc)
    else gen_kernel i >>= fun s -> go (i + 1) (s :: acc)
  in
  go 1 [ w ]

let gen_with (kernels : Timing.launch_spec list QCheck.Gen.t) :
    (Timing.dispatch_policy * Timing.launch_spec list) QCheck.Gen.t =
  let open QCheck.Gen in
  frequency [ (3, return Timing.Fifo); (1, return Timing.Leftover) ]
  >>= fun policy -> kernels >|= fun specs -> (policy, specs)

let gen_specs =
  gen_with (QCheck.Gen.frequency [ (3, gen_mixed); (1, gen_waves) ])

let print_specs
    ((policy, specs) : Timing.dispatch_policy * Timing.launch_spec list) :
    string =
  let lens (b : Trace.block) =
    String.concat ","
      (Array.to_list (Array.map (fun t -> string_of_int (Trace.length t)) b))
  in
  (match policy with Timing.Fifo -> "fifo: " | Timing.Leftover -> "leftover: ")
  ^ String.concat "; "
      (List.map
         (fun (s : Timing.launch_spec) ->
           Printf.sprintf
             "%s{grid=%d thr=%d regs=%d spill=%d smem=%d stream=%d lens=[%s]}"
             s.Timing.label s.Timing.grid s.Timing.threads_per_block
             s.Timing.regs s.Timing.spill s.Timing.smem s.Timing.stream
             (String.concat " | "
                (Array.to_list (Array.map lens s.Timing.block_traces))))
         specs)

let random_specs_bitidentical =
  QCheck.Test.make ~name:"randomized launches: new report = legacy report"
    ~count:80
    (QCheck.make ~print:print_specs gen_specs)
    (fun (policy, specs) ->
      List.for_all
        (fun (a : Arch.t) ->
          match run_both ~policy a specs with
          | Ok n, Ok l -> (
              match diff n l with
              | [] -> true
              | ms ->
                  QCheck.Test.fail_reportf "%s: report fields differ: %s"
                    a.Arch.name (String.concat ", " ms))
          | Error a, Error b -> a = b
          | Ok _, Error m ->
              QCheck.Test.fail_reportf "legacy raised (%s), new succeeded" m
          | Error m, Ok _ ->
              QCheck.Test.fail_reportf "new raised (%s), legacy succeeded" m)
        [ arch; Arch.v100 ])

(* -- seeded draws --------------------------------------------------------- *)

(* Fixed draws of the generators above, 40 of one to three random
   kernels and 24 led by a wave-spanning kernel, on both arches.  Their
   report digests in golden/draws.md5 were recorded from the reference
   engine's reports: a committed reference for the launches the
   randomized comparison only samples. *)
let seeded_draws () : (string * string) list =
  let draw gen seed =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |]) gen
  in
  List.concat_map
    (fun (name, gen, n) ->
      List.concat_map
        (fun seed ->
          let policy, specs = draw gen seed in
          List.map
            (fun (a : Arch.t) ->
              ( Printf.sprintf "%s/%d/%s" name seed a.Arch.name,
                Test_replay.outcome ~policy a specs ))
            [ arch; Arch.v100 ])
        (List.init n Fun.id))
    [ ("mixed", gen_with gen_mixed, 40); ("waves", gen_with gen_waves, 24) ]

let test_seeded_draws () =
  let actual = List.map (fun (n, d) -> n ^ " " ^ d) (seeded_draws ()) in
  Alcotest.(check (list string)) "seeded draw digests"
    (Test_replay.golden_lines ~file:"draws.md5" ())
    actual

(* -- engine self-profiling --------------------------------------------- *)

let test_engine_stats () =
  (* dependent global loads leave long provably-idle windows; a grid
     bigger than residency forces block turnover (warp reuse) *)
  let loads = List.init 12 (fun _ -> Instr.Ld_global (8, 0)) in
  let specs =
    [
      (* regs 128 caps residency at 4 blocks/SM, so a 10x-SM grid takes
         several waves and completed blocks' warp records get recycled *)
      spec ~label:"mem" ~grid:(10 * arch.Arch.sms) ~threads:128 ~regs:128
        (List.init 4 (fun _ -> loads @ alus 20));
    ]
  in
  let _, es = Timing.run_with_stats arch specs in
  Alcotest.(check bool)
    (Printf.sprintf "warp_reuses > 0 (got %d)" es.Timing.warp_reuses)
    true (es.Timing.warp_reuses > 0);
  Alcotest.(check bool) "some cycles visited" true (es.Timing.cycles_stepped > 0);
  (* a single-block grid keeps one SM issuing while the rest sleep, so
     visited cycles are served from the sleepers' cached contribution *)
  let _, es1 =
    Timing.run_with_stats arch [ spec ~label:"solo" [ alus 400 ] ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "sm_steps_skipped > 0 (got %d)" es1.Timing.sm_steps_skipped)
    true (es1.Timing.sm_steps_skipped > 0)

(* -- pooled figure measurement determinism ----------------------------- *)

let numeric_of_row (r : Experiment.fused_row) =
  (* project away Spec.t/Arch.t (closures) before comparing *)
  let v (x : Experiment.fused_variant) =
    ( Int64.bits_of_float x.Experiment.speedup_pct,
      x.Experiment.metrics,
      x.Experiment.d1,
      x.Experiment.d2,
      x.Experiment.reg_bound )
  in
  ( Int64.bits_of_float r.Experiment.native_util,
    v r.Experiment.no_regcap,
    Option.map v r.Experiment.regcap )

let test_pool_determinism () =
  let pair =
    ( Kernel_corpus.Registry.find_exn "Batchnorm",
      Kernel_corpus.Registry.find_exn "Hist" )
  in
  let sizes = [ ("Batchnorm", 4); ("Hist", 4) ] in
  let settings = Test_util.env_settings () in
  let r1 = Experiment.figure9_pair ~jobs:1 ~settings arch sizes pair in
  Runner.clear_cache ();
  let r4 = Experiment.figure9_pair ~jobs:4 ~settings arch sizes pair in
  Alcotest.(check bool) "-j 1 and -j 4 rows identical" true
    (numeric_of_row r1 = numeric_of_row r4)

let suite =
  [
    Alcotest.test_case "synthetic launches vs legacy" `Quick
      test_synthetic_corpus;
    Alcotest.test_case "corpus pairs vs legacy" `Slow test_corpus_pairs;
    Alcotest.test_case "golden seeded draws" `Quick test_seeded_draws;
    Alcotest.test_case "engine stats counters" `Quick test_engine_stats;
    Alcotest.test_case "pooled figure9 determinism" `Slow test_pool_determinism;
  ]
  @ Test_util.qcheck_cases [ random_specs_bitidentical ]
