(* Golden replay digests: committed md5s of full {!Gpusim.Timing}
   reports, so any change to the replay engine must reproduce every
   report field bit for bit.  Each line of golden/replay.md5 is a case
   name and the md5 of the report printed field by field (floats as
   [%h], so the digest pins their bits).  The cases cover every
   hand-written corpus kernel's solo replay at size 1 on both arches, a
   few native pairs and naive fusions, and seeded random launches with
   spill, several streams, barriers (trailing ones included) and both
   dispatch policies.  A second test bounds what the hot loop
   allocates. *)

open Gpusim
open Hfuse_profiler

(* fixed settings: no environment, no disk tiers *)
let settings =
  Settings.resolve ~trace_blocks:1 ~sim_fuel:Launch.default_loop_fuel
    ~trace_mem_mb:0 ~cache_dir:None ~fault:None ()

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

let golden_lines () =
  In_channel.with_open_bin (Filename.concat "golden" "replay.md5")
    In_channel.input_lines
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let test_golden_replays () =
  let actual =
    List.map (fun (n, d) -> n ^ " " ^ d) (corpus_cases () @ random_cases ())
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

let suite =
  [
    Alcotest.test_case "golden replay digests" `Quick test_golden_replays;
    Alcotest.test_case "hot loop allocation" `Quick test_hot_loop_allocation;
  ]
