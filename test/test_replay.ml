(* Golden replay digests: committed md5s of full {!Gpusim.Timing}
   reports, so any change to the replay engine must reproduce every
   report field bit for bit.  Each line of golden/replay.md5 is a case
   name and the md5 of the report printed field by field (floats as
   [%h], so the digest pins their bits).  The cases cover every
   hand-written corpus kernel's solo replay at size 1 on both arches, a
   few native pairs and naive fusions, seeded random launches with
   spill, several streams, barriers (trailing ones included) and both
   dispatch policies, and the shapes that split the engine's SM classes
   (kernel boundaries inside a dispatch, sub-wave grids, two traced
   blocks per kernel, three streams).  The lines after the file's
   second comment were recorded before the engine fast-forwarded
   repeating waves: the unbounded fused candidates of the fleet pairs
   whose waves repeat, and multi-wave grids at the edges of a
   fast-forward.  Further tests bound what the hot loop allocates. *)

open Gpusim
open Hfuse_profiler

(* fixed settings: no environment, no disk tiers; one or two traced
   blocks per kernel *)
let settings_tb tb =
  Settings.resolve ~trace_blocks:tb ~sim_fuel:Launch.default_loop_fuel
    ~trace_mem_mb:0 ~cache_dir:None ~fault:None ()

let settings = settings_tb 1

let fingerprint (r : Timing.report) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b "%d %h %d %d %h %d %d %d %d %h %h" r.elapsed_cycles
    r.time_ms r.issued_slots r.total_slots r.issue_slot_util
    r.mem_stall_slots r.sync_stall_slots r.other_stall_slots r.idle_slots
    r.mem_stall_pct r.occupancy;
  List.iter
    (fun (k : Timing.kernel_metrics) ->
      Printf.bprintf b "|%s %d %d %d" k.k_label k.k_elapsed_cycles k.k_issued
        k.k_blocks_per_sm)
    r.kernels;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The outcome of one case: a report digest, or the engine's refusal. *)
let outcome ?policy (a : Arch.t) (specs : Timing.launch_spec list) : string =
  match Timing.run ?policy a specs with
  | r -> fingerprint r
  | exception Timing.Timing_error m ->
      "error:" ^ String.map (function ' ' -> '_' | c -> c) m

let arches = [ Arch.gtx1080ti; Arch.v100 ]

let corpus_cases () : (string * string) list =
  let mem = Memory.create () in
  let conf name =
    Runner.configure mem (Kernel_corpus.Registry.find_exn name) ~size:1
  in
  let solo =
    List.concat_map
      (fun (s : Kernel_corpus.Spec.t) ->
        let c = Runner.configure mem s ~size:1 in
        List.map
          (fun (a : Arch.t) ->
            ( Printf.sprintf "solo/%s/%s" s.name a.name,
              outcome a [ Runner.spec_of ~settings c ~stream:0 () ] ))
          arches)
      Kernel_corpus.Registry.extended
  in
  let pairs =
    [ ("Batchnorm", "Hist"); ("Maxpool", "Upsample"); ("Blake2B", "Ethash");
      ("Im2Col", "Upsample") ]
  in
  let native =
    List.concat_map
      (fun (n1, n2) ->
        let c1 = conf n1 and c2 = conf n2 in
        let specs =
          [ Runner.spec_of ~settings c1 ~stream:0 ();
            Runner.spec_of ~settings c2 ~stream:1 () ]
        in
        let fused =
          match Runner.naive_hfuse c1 c2 with
          | None -> []
          | Some f ->
              let traces = Runner.hfuse_traces ~settings c1 c2 f in
              [ ( Printf.sprintf "naive/%s+%s/1080Ti" n1 n2,
                  outcome Arch.gtx1080ti
                    [ Runner.hfuse_spec f ~reg_bound:None ~traces ] ) ]
        in
        List.map
          (fun (a : Arch.t) ->
            (Printf.sprintf "native/%s+%s/%s" n1 n2 a.name, outcome a specs))
          arches
        @ fused)
      pairs
  in
  solo @ native

(* -- seeded random launches --------------------------------------------- *)

(* A self-contained generator over [Random.State], so the committed
   digests depend only on the seed. *)
let random_instr rs : Instr.t =
  match Random.State.int rs 22 with
  | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 -> Instr.Alu
  | 8 | 9 -> Instr.Falu
  | 10 -> Instr.Sfu
  | 11 -> Instr.Shfl
  | 12 | 13 | 14 ->
      let m = Random.State.int rs 7 in
      let h = Random.State.int rs 7 in
      if m = 0 && h = 0 then Instr.Ld_global (1, 0) else Instr.Ld_global (m, h)
  | 15 -> Instr.St_global (1 + Random.State.int rs 6)
  | 16 -> Instr.Ld_shared (1 + Random.State.int rs 4)
  | 17 -> Instr.St_shared (1 + Random.State.int rs 4)
  | 18 -> Instr.Atom_shared (1 + Random.State.int rs 3)
  | 19 -> Instr.Ld_local
  | 20 -> Instr.St_local
  | _ -> Instr.Branch

(* Draws happen in [let] sequence, and [draws n f] makes its [n] calls
   in order: OCaml leaves the evaluation order of tuple, record and
   [let ... and] components unspecified. *)
let draws n f =
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (f i :: acc) in
  go 0 []

let pick rs l = List.nth l (Random.State.int rs (List.length l))
let random_instrs rs = draws (Random.State.int rs 30) (fun _ -> random_instr rs)

(* 1-8 warps of up to 60 instructions; optionally a trailing full-block
   barrier on every warp and a mid-trace partial barrier over the first
   k warps (every participant reaches it, so the launch terminates). *)
let random_kernel rs idx : Timing.launch_spec =
  let n_warps = 1 + Random.State.int rs 8 in
  let threads = n_warps * 32 in
  let k = 1 + Random.State.int rs n_warps in
  let full_bar = Random.State.bool rs in
  let partial_bar = Random.State.bool rs in
  let trace i =
    let pre = random_instrs rs in
    let post = random_instrs rs in
    let mid = if partial_bar && i < k then [ Instr.Bar (1, k * 32) ] else [] in
    let tail = if full_bar then [ Instr.Bar (0, threads) ] else [] in
    let t = Trace.create () in
    List.iter (Trace.push t) (pre @ mid @ post @ tail);
    t
  in
  let block = Array.of_list (draws n_warps trace) in
  let grid = 1 + Random.State.int rs 300 in
  let regs = pick rs [ 32; 40; 64; 96 ] in
  let spill = pick rs [ 0; 0; 12; 40 ] in
  let smem = pick rs [ 0; 0; 8192 ] in
  let stream = Random.State.int rs 3 in
  {
    Timing.label = Printf.sprintf "k%d" idx;
    block_traces = [| block |];
    grid;
    threads_per_block = threads;
    regs;
    spill;
    smem;
    stream;
  }

let random_cases () : (string * string) list =
  List.concat_map
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let specs = draws (1 + Random.State.int rs 3) (random_kernel rs) in
      List.concat_map
        (fun (a : Arch.t) ->
          [ ( Printf.sprintf "random/%d/fifo/%s" seed a.name,
              outcome a specs );
            ( Printf.sprintf "random/%d/leftover/%s" seed a.name,
              outcome ~policy:Timing.Leftover a specs ) ])
        arches)
    (List.init 24 Fun.id)

(* -- shapes that split SM classes --------------------------------------- *)

(* Launches where SMs that stepped in lockstep stop receiving the same
   blocks: a kernel boundary inside one dispatch, grids smaller than a
   wave, two trace templates per kernel, three streams under both
   policies, and spill next to warps that end on a barrier. *)
let trace_of instrs =
  let t = Trace.create () in
  List.iter (Trace.push t) instrs;
  t

let alus n = List.init n (fun _ -> Instr.Alu)

let kernel ?(regs = 32) ?(spill = 0) ?(smem = 0) ~label ~grid ~threads
    ~stream (blocks : Instr.t list list list) : Timing.launch_spec =
  {
    Timing.label;
    block_traces =
      Array.of_list
        (List.map (fun b -> Array.of_list (List.map trace_of b)) blocks);
    grid;
    threads_per_block = threads;
    regs;
    spill;
    smem;
    stream;
  }

(* [n] warps, warp [i] running [f i] *)
let warps n f = List.init n f

let loady i = alus (8 + (3 * i)) @ [ Instr.Ld_global (2, 1) ] @ alus 20
let shared i =
  alus (5 + i) @ [ Instr.Ld_shared 2; Instr.St_shared 1 ] @ alus 12

let split_launches :
    (string * Timing.dispatch_policy * Timing.launch_spec list) list =
  let k1 ~stream =
    kernel ~label:"k1" ~grid:37 ~threads:512 ~stream [ warps 16 loady ]
  and k2 ~stream =
    kernel ~label:"k2" ~grid:29 ~threads:256 ~smem:8192 ~stream
      [ warps 8 shared ]
  in
  let tail_bar n i = alus (4 + (5 * i)) @ [ Instr.Ld_global (1, 0) ]
                     @ alus 6 @ [ Instr.Bar (0, n * 32) ] in
  (* five 384-thread blocks leave room for one 128-thread block, which
     only Leftover backfills *)
  let three_streams =
    [ kernel ~label:"k1" ~grid:37 ~threads:384 ~stream:0 [ warps 12 loady ];
      k2 ~stream:1;
      kernel ~label:"k3" ~grid:23 ~threads:128 ~stream:2
        [ warps 4 (fun i -> shared i @ loady i) ] ]
  in
  [
    ("boundary-streams", Timing.Fifo, [ k1 ~stream:0; k2 ~stream:1 ]);
    ("boundary-one-stream", Timing.Fifo, [ k2 ~stream:0; k1 ~stream:0 ]);
    ( "subwave",
      Timing.Fifo,
      [ kernel ~label:"s" ~grid:21 ~threads:512 ~stream:0
          [ warps 16 loady ] ] );
    ( "subwave-small",
      Timing.Fifo,
      [ kernel ~label:"s" ~grid:3 ~threads:128 ~stream:0 [ warps 4 shared ] ] );
    ( "two-templates",
      Timing.Fifo,
      [
        kernel ~label:"t" ~grid:45 ~threads:256 ~stream:0
          [ warps 8 loady; warps 8 (fun i -> loady (i + 3) @ alus 9) ];
      ] );
    ("three-streams", Timing.Leftover, three_streams);
    ("three-streams-fifo", Timing.Fifo, three_streams);
    ( "spill-tail-barrier",
      Timing.Fifo,
      [
        kernel ~label:"b" ~grid:41 ~threads:192 ~regs:64 ~spill:24 ~stream:0
          [ warps 6 (tail_bar 6) ];
      ] );
  ]

let split_cases () : (string * string) list =
  let launches =
    List.concat_map
      (fun (a : Arch.t) ->
        List.map
          (fun (name, policy, specs) ->
            (Printf.sprintf "split/%s/%s" name a.name, outcome ~policy a specs))
          split_launches)
      arches
  in
  (* native pairs replayed from two traced blocks per kernel *)
  let settings = settings_tb 2 in
  let mem = Memory.create () in
  let conf name =
    Runner.configure mem (Kernel_corpus.Registry.find_exn name) ~size:1
  in
  let tb2 =
    List.concat_map
      (fun (n1, n2) ->
        let c1 = conf n1 and c2 = conf n2 in
        let specs =
          [ Runner.spec_of ~settings c1 ~stream:0 ();
            Runner.spec_of ~settings c2 ~stream:1 () ]
        in
        List.map
          (fun (a : Arch.t) ->
            ( Printf.sprintf "native-tb2/%s+%s/%s" n1 n2 a.name,
              outcome a specs ))
          arches)
      [ ("Batchnorm", "Hist"); ("Maxpool", "Upsample") ]
  in
  launches @ tb2

(* -- waves that repeat -------------------------------------------------- *)

(* The fleet pairs whose fused candidates launch grids of many waves of
   one template, so the engine's state recurs and whole periods are
   fast-forwarded. *)
let recurring_pairs =
  [ ("Hist", "MulAdd"); ("Maxpool", "gen056"); ("Upsample", "gen026");
    ("Blur3", "gen026"); ("Resize", "gen027") ]

(* [c1] and [c2] at size 1, with the fleet corpus installed *)
let fleet_pair n1 n2 =
  Hfuse_fleet.Corpus.install ();
  let mem = Memory.create () in
  let conf name =
    Runner.configure mem (Kernel_corpus.Registry.find_exn name) ~size:1
  in
  (conf n1, conf n2)

(* the pair's verified fused kernels without a register bound, in
   search order *)
let unbounded_candidates (a : Arch.t) (c1 : Runner.configured)
    (c2 : Runner.configured) : Hfuse_core.Hfuse.t list =
  let r =
    Hfuse_core.Search.search ~limits:(Arch.sm_limits a)
      ~profile:(List.map (fun _ -> 0.0))
      ~d0:(Runner.d0_for c1 c2) c1.info c2.info
  in
  List.filter_map
    (fun (c : Hfuse_core.Search.candidate) ->
      match c.config.reg_bound with None -> Some c.fused | Some _ -> None)
    r.all

let fused_spec ~settings c1 c2 f =
  Runner.hfuse_spec f ~reg_bound:None
    ~traces:(Runner.hfuse_traces ~settings c1 c2 f)

let fleet_cases () : (string * string) list =
  List.concat_map
    (fun (n1, n2) ->
      let c1, c2 = fleet_pair n1 n2 in
      List.concat_map
        (fun (a : Arch.t) ->
          List.map
            (fun (f : Hfuse_core.Hfuse.t) ->
              ( Printf.sprintf "fleet/%s+%s/%d+%d/%s" n1 n2 f.d1 f.d2 a.name,
                outcome a [ fused_spec ~settings c1 c2 f ] ))
            (unbounded_candidates a c1 c2))
        arches)
    recurring_pairs

(* Multi-wave grids at the edges of a fast-forward: a queue that
   empties partway through a period or before a second one, spill, a
   kernel queued behind the waves, Leftover dispatch, and two traced
   blocks per kernel.  Their 1024-thread blocks fit two to an SM, so a
   wave is 8 blocks on the 1080Ti and 16 on the V100, and the Fifo
   waves of one template repeat. *)
let wave_launches :
    (string * Timing.dispatch_policy * Timing.launch_spec list) list =
  let waves ?spill ~grid ~stream () =
    kernel ?spill ~label:"w" ~grid ~threads:1024 ~stream [ warps 32 loady ]
  in
  [
    ("mid-period", Timing.Fifo, [ waves ~grid:203 ~stream:0 () ]);
    ("short-queue", Timing.Fifo, [ waves ~grid:25 ~stream:0 () ]);
    ("spill", Timing.Fifo, [ waves ~spill:8 ~grid:203 ~stream:0 () ]);
    ( "then-kernel",
      Timing.Fifo,
      [ waves ~grid:203 ~stream:0 ();
        kernel ~label:"k" ~grid:29 ~threads:256 ~smem:8192 ~stream:0
          [ warps 8 shared ] ] );
    ( "leftover",
      Timing.Leftover,
      [ waves ~grid:203 ~stream:0 ();
        kernel ~label:"k" ~grid:23 ~threads:128 ~stream:1 [ warps 4 shared ] ]
    );
    ( "two-templates",
      Timing.Fifo,
      [
        kernel ~label:"t" ~grid:203 ~threads:1024 ~stream:0
          [ warps 32 loady; warps 32 (fun i -> loady (i + 3) @ alus 9) ];
      ] );
  ]

let wave_cases () : (string * string) list =
  let launches =
    List.concat_map
      (fun (a : Arch.t) ->
        List.map
          (fun (name, policy, specs) ->
            (Printf.sprintf "waves/%s/%s" name a.name, outcome ~policy a specs))
          wave_launches)
      arches
  in
  (* a recurring fused candidate replayed from two traced blocks *)
  let settings = settings_tb 2 in
  let c1, c2 = fleet_pair "Upsample" "gen026" in
  let tb2 =
    List.concat_map
      (fun (a : Arch.t) ->
        List.map
          (fun (f : Hfuse_core.Hfuse.t) ->
            ( Printf.sprintf "fleet-tb2/Upsample+gen026/%d+%d/%s" f.d1 f.d2
                a.name,
              outcome a [ fused_spec ~settings c1 c2 f ] ))
          (unbounded_candidates a c1 c2))
      arches
  in
  launches @ tb2

let golden_lines ?(file = "replay.md5") () =
  In_channel.with_open_bin (Filename.concat "golden" file)
    In_channel.input_lines
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let test_golden_replays () =
  let actual =
    List.map
      (fun (n, d) -> n ^ " " ^ d)
      (corpus_cases () @ random_cases () @ split_cases () @ fleet_cases ()
     @ wave_cases ())
  in
  Alcotest.(check (list string)) "replay digests" (golden_lines ()) actual

(* The hot loop allocates nothing per cycle: on a replay of many
   thousand stepped cycles the minor heap grows only by the per-run
   setup (specs, SM state, warp records), a few words per cycle at
   most. *)
let test_hot_loop_allocation () =
  let mem = Memory.create () in
  let c =
    Runner.configure mem (Kernel_corpus.Registry.find_exn "Batchnorm") ~size:1
  in
  let specs = [ Runner.spec_of ~settings c ~stream:0 () ] in
  ignore (Timing.run Arch.gtx1080ti specs);
  let before = Gc.minor_words () in
  let _, es = Timing.run_with_stats Arch.gtx1080ti specs in
  let words = Gc.minor_words () -. before in
  let per_cycle = words /. float_of_int (max 1 es.Timing.cycles_stepped) in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per stepped cycle (%d cycles) < 4"
       per_cycle es.Timing.cycles_stepped)
    true (per_cycle < 4.0)

(* Identical SMs step once: a one-kernel launch of several waves keeps
   the 1080Ti's four SMs in one class but for its tail, so a stepped
   cycle steps little more than one SM class.  Stepping each SM alone
   would take about four. *)
let test_classes_engaged () =
  let specs =
    [ kernel ~label:"w" ~grid:(6 * 4 * 8) ~threads:256 ~stream:0
        [ warps 8 loady ] ]
  in
  let _, es = Timing.run_with_stats Arch.gtx1080ti specs in
  let per_cycle =
    float_of_int es.Timing.sm_steps
    /. float_of_int (max 1 es.Timing.cycles_stepped)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f SM-class steps per stepped cycle (%d cycles) <= 1.2"
       per_cycle es.Timing.cycles_stepped)
    true (per_cycle <= 1.2)

(* Repeating waves are advanced whole periods at a time.  Upsample+gen026's
   unbounded fused candidate runs 44,425 cycles on the 1080Ti; stepping
   every wave visited 38,329 of them, and from cycle 3,702 its state
   repeats every 1,851 cycles.  Replayed from two traced blocks, its
   waves repeat too.  A grid whose queue runs dry before a second
   period and Leftover dispatch are stepped to the end. *)
let test_waves_fast_forward () =
  let c1, c2 = fleet_pair "Upsample" "gen026" in
  let a = Arch.gtx1080ti in
  let f =
    match unbounded_candidates a c1 c2 with
    | [ f ] -> f
    | fs -> Alcotest.failf "%d unbounded candidates" (List.length fs)
  in
  let r, es = Timing.run_with_stats a [ fused_spec ~settings c1 c2 f ] in
  Alcotest.(check int) "elapsed cycles" 44_425 r.Timing.elapsed_cycles;
  Alcotest.(check bool)
    (Printf.sprintf "%d cycles stepped, %d forwarded in %d periods"
       es.Timing.cycles_stepped es.Timing.cycles_forwarded
       es.Timing.periods_forwarded)
    true
    (2 * es.Timing.cycles_stepped < 38_329);
  Alcotest.(check int) "cycles add up" r.Timing.elapsed_cycles
    (es.Timing.cycles_stepped + es.Timing.cycles_skipped
   + es.Timing.cycles_forwarded);
  let _, es2 =
    Timing.run_with_stats a [ fused_spec ~settings:(settings_tb 2) c1 c2 f ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "two traced blocks: %d cycles forwarded"
       es2.Timing.cycles_forwarded)
    true
    (es2.Timing.cycles_forwarded > 0);
  (* the wave launches cross a fast-forward where one may occur *)
  List.iter
    (fun (a : Arch.t) ->
      List.iter
        (fun (name, policy, specs) ->
          let _, es = Timing.run_with_stats ~policy a specs in
          Alcotest.(check bool)
            (Printf.sprintf "waves/%s/%s forwards" name a.name)
            (List.mem name [ "mid-period"; "spill"; "then-kernel" ])
            (es.Timing.cycles_forwarded > 0))
        wave_launches)
    arches

let suite =
  [
    Alcotest.test_case "golden replay digests" `Quick test_golden_replays;
    Alcotest.test_case "waves fast-forward" `Quick test_waves_fast_forward;
    Alcotest.test_case "hot loop allocation" `Quick test_hot_loop_allocation;
    Alcotest.test_case "SM classes engaged" `Quick test_classes_engaged;
  ]
