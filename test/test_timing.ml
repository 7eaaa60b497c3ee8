(* Timing-model tests against analytically-predictable traces. *)

open Gpusim

let arch = Arch.gtx1080ti

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

let test_single_warp_alu_chain () =
  (* one warp of N dependent ALU ops: ~N * alu_latency cycles *)
  let n = 100 in
  let r = Timing.run arch [ spec [ alus n ] ] in
  let expected = n * arch.alu_latency in
  Alcotest.(check bool)
    (Printf.sprintf "cycles %d within 20%% of %d" r.elapsed_cycles expected)
    true
    (abs (r.elapsed_cycles - expected) < expected / 5)

let test_more_warps_hide_latency () =
  (* same per-warp work; more warps should not stretch time linearly *)
  let one = Timing.run arch [ spec [ alus 200 ] ] in
  let eight =
    Timing.run arch [ spec ~threads:256 (List.init 8 (fun _ -> alus 200)) ]
  in
  Alcotest.(check bool) "8 warps cost < 2x one warp" true
    (eight.elapsed_cycles < 2 * one.elapsed_cycles);
  Alcotest.(check bool) "utilisation rises" true
    (eight.issue_slot_util > one.issue_slot_util)

let test_issue_bound_saturation () =
  (* enough warps saturate the schedulers: util approaches 100% *)
  let r =
    Timing.run arch
      [ spec ~grid:(2 * arch.sms) ~threads:1024
          (List.init 32 (fun _ -> alus 500)) ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "util %.1f > 85" r.issue_slot_util)
    true (r.issue_slot_util > 85.0)

let test_memory_latency_dominates () =
  (* dependent uncoalesced loads: time >> instruction count; stalls are
     classified as memory *)
  let loads = List.init 20 (fun _ -> Instr.Ld_global (32, 0)) in
  let r = Timing.run arch [ spec [ loads ] ] in
  Alcotest.(check bool) "much slower than ALU" true
    (r.elapsed_cycles > 20 * arch.alu_latency * 4);
  Alcotest.(check bool)
    (Printf.sprintf "mem stalls dominate (%.1f%%)" r.mem_stall_pct)
    true (r.mem_stall_pct > 80.0)

let test_l1_hits_cheaper () =
  let misses = List.init 50 (fun _ -> Instr.Ld_global (4, 0)) in
  let hits = List.init 50 (fun _ -> Instr.Ld_global (0, 4)) in
  let rm = Timing.run arch [ spec [ misses ] ] in
  let rh = Timing.run arch [ spec [ hits ] ] in
  Alcotest.(check bool) "hits faster" true
    (rh.elapsed_cycles < rm.elapsed_cycles)

let test_barrier_synchronises () =
  (* two warps, one long one short, meeting at a barrier: elapsed must
     cover the long warp before the barrier releases *)
  let long_w = alus 300 @ [ Instr.Bar (1, 64) ] @ alus 10 in
  let short_w = alus 10 @ [ Instr.Bar (1, 64) ] @ alus 10 in
  let r = Timing.run arch [ spec ~threads:64 [ long_w; short_w ] ] in
  Alcotest.(check bool) "covers the long warp" true
    (r.elapsed_cycles >= 300 * arch.alu_latency / 2);
  Alcotest.(check bool) "sync stalls recorded" true (r.sync_stall_slots > 0)

let test_partial_barrier_ignores_nonparticipants () =
  (* warp 0 syncs alone on bar 1 with count 32; warp 1 never syncs: no
     deadlock, short elapsed *)
  let w0 = alus 5 @ [ Instr.Bar (1, 32) ] @ alus 5 in
  let w1 = alus 5 in
  let r = Timing.run arch [ spec ~threads:64 [ w0; w1 ] ] in
  Alcotest.(check bool) "completes quickly" true (r.elapsed_cycles < 1000)

let test_unsatisfiable_barrier_deadlocks () =
  let w0 = [ Instr.Bar (1, 64) ] in
  match Timing.run arch [ spec [ w0 ] ] with
  | exception Timing.Timing_error msg ->
      Alcotest.(check bool) "reports deadlock" true
        (Test_util.contains msg "deadlock")
  | _ -> Alcotest.fail "expected timing deadlock"

let test_occupancy_limits_blocks () =
  (* high register usage halves resident blocks and slows execution *)
  let work = List.init 16 (fun _ -> alus 200) in
  let light = Timing.run arch [ spec ~grid:16 ~threads:512 ~regs:32 work ] in
  let heavy = Timing.run arch [ spec ~grid:16 ~threads:512 ~regs:128 work ] in
  Alcotest.(check bool) "heavy regs slower" true
    (heavy.elapsed_cycles > light.elapsed_cycles);
  let kb b = (List.hd b.Timing.kernels).Timing.k_blocks_per_sm in
  Alcotest.(check int) "light fits 4 blocks" 4 (kb light);
  Alcotest.(check int) "heavy fits 1 block" 1 (kb heavy)

let test_kernel_too_big_rejected () =
  match
    Timing.run arch [ spec ~threads:1024 ~regs:255 [ alus 1 ] ]
  with
  | exception Timing.Timing_error msg ->
      Alcotest.(check bool) "reports misfit" true
        (Test_util.contains msg "cannot fit")
  | _ -> Alcotest.fail "expected an occupancy error"

let test_spill_slows () =
  let work = List.init 16 (fun _ -> alus 400) in
  let base = Timing.run arch [ spec ~grid:8 ~threads:512 work ] in
  let spilled =
    Timing.run arch [ spec ~grid:8 ~threads:512 ~spill:40 work ]
  in
  Alcotest.(check bool) "spilling costs time" true
    (spilled.elapsed_cycles > base.elapsed_cycles);
  Alcotest.(check bool) "spilling issues extra instructions" true
    (spilled.issued_slots > base.issued_slots)

let test_fifo_vs_leftover () =
  (* a long stream-0 kernel and a short stream-1 kernel: under FIFO the
     second waits; under the idealised Leftover policy it backfills *)
  let big = spec ~label:"big" ~grid:16 ~threads:1024 ~stream:0
      (List.init 32 (fun _ -> alus 400)) in
  let small = spec ~label:"small" ~grid:16 ~threads:256 ~stream:1
      (List.init 8 (fun _ -> alus 50)) in
  let fifo = Timing.run ~policy:Timing.Fifo arch [ big; small ] in
  let leftover = Timing.run ~policy:Timing.Leftover arch [ big; small ] in
  Alcotest.(check bool) "leftover overlaps better" true
    (leftover.elapsed_cycles <= fifo.elapsed_cycles)

let test_streams_vs_serial () =
  (* two kernels on separate streams must not be slower than the sum of
     their solo runs (FIFO allows tail overlap) *)
  let k1 () = spec ~label:"a" ~grid:8 ~threads:512 ~stream:0
      (List.init 16 (fun _ -> alus 300)) in
  let k2 () = spec ~label:"b" ~grid:8 ~threads:512 ~stream:1
      (List.init 16 (fun _ -> alus 300)) in
  let solo1 = Timing.run arch [ k1 () ] in
  let solo2 = Timing.run arch [ { (k2 ()) with stream = 0 } ] in
  let both = Timing.run arch [ k1 (); k2 () ] in
  Alcotest.(check bool) "pair <= sum + 10%" true
    (both.elapsed_cycles
    <= (solo1.elapsed_cycles + solo2.elapsed_cycles) * 11 / 10)

let test_report_accounting () =
  let r = Timing.run arch [ spec ~threads:64 [ alus 50; alus 50 ] ] in
  Alcotest.(check int) "issued = instructions" 100 r.issued_slots;
  Alcotest.(check bool) "slots add up" true
    (r.issued_slots + r.mem_stall_slots + r.sync_stall_slots
     + r.other_stall_slots + r.idle_slots
    = r.total_slots);
  Alcotest.(check bool) "time positive" true (r.time_ms > 0.0)

let test_determinism () =
  let mk () =
    spec ~grid:8 ~threads:512
      (List.init 16 (fun i ->
           alus (100 + i) @ [ Instr.Ld_global (4, 0) ] @ alus 50))
  in
  let a = Timing.run arch [ mk () ] and b = Timing.run arch [ mk () ] in
  Alcotest.(check int) "same cycles" a.elapsed_cycles b.elapsed_cycles;
  Alcotest.(check int) "same issue count" a.issued_slots b.issued_slots

let test_volta_fp32_issue () =
  (* fp32 costs two issue slots on the V100 model's 64-core partitions *)
  let work = [ List.init 200 (fun _ -> Instr.Falu) ] in
  let p = Timing.run Arch.gtx1080ti [ spec work ] in
  let v = Timing.run Arch.v100 [ spec work ] in
  Alcotest.(check bool) "V100 accounts more slots" true
    (v.issued_slots > p.issued_slots)

(* A warp whose last instruction is a barrier finishes when the barrier
   releases.  It must not issue past its trace: with growth slack that
   read a phantom instruction, with exact-length arrays (the trace
   store's decoded traces) it raised.  Slack, exact and decoded traces
   replay to one report that issues exactly the trace's instructions. *)
let test_trailing_barrier () =
  let warps = [ alus 3 @ [ Instr.Bar (0, 64) ]; alus 9 @ [ Instr.Bar (0, 64) ] ] in
  let slack = Array.of_list (List.map mk_trace warps) in
  let exact =
    Array.map
      (fun (t : Trace.t) ->
        {
          Trace.codes = Array.sub t.Trace.codes 0 t.Trace.len;
          payloads = Array.sub t.Trace.payloads 0 t.Trace.len;
          len = t.Trace.len;
        })
      slack
  in
  let decoded =
    match Trace.decode_blocks (Trace.encode_blocks [| slack |]) with
    | Some [| b |] -> b
    | _ -> Alcotest.fail "trace round trip failed"
  in
  let variants = [ ("slack", slack); ("exact", exact); ("decoded", decoded) ] in
  let spec_of b = { (spec ~threads:64 []) with Timing.block_traces = [| b |] } in
  let reports =
    List.map (fun (name, b) -> (name, Timing.run arch [ spec_of b ])) variants
  in
  List.iter
    (fun (name, (r : Timing.report)) ->
      Alcotest.(check int) (name ^ ": issued = instructions") 14 r.issued_slots;
      Alcotest.(check bool) (name ^ ": same report as slack") true
        (r = List.assoc "slack" reports))
    reports;
  List.iter
    (fun (name, b) ->
      let l = Timing_legacy.run arch [ Test_engine_diff.to_legacy (spec_of b) ] in
      Alcotest.(check int) (name ^ ": legacy issued") 14
        l.Timing_legacy.issued_slots;
      Alcotest.(check int) (name ^ ": legacy cycles")
        (List.assoc "slack" reports).elapsed_cycles
        l.Timing_legacy.elapsed_cycles)
    variants

let suite =
  [
    Alcotest.test_case "single warp ALU chain" `Quick
      test_single_warp_alu_chain;
    Alcotest.test_case "warps hide latency" `Quick
      test_more_warps_hide_latency;
    Alcotest.test_case "issue-bound saturation" `Quick
      test_issue_bound_saturation;
    Alcotest.test_case "memory latency dominates" `Quick
      test_memory_latency_dominates;
    Alcotest.test_case "cache hits cheaper" `Quick test_l1_hits_cheaper;
    Alcotest.test_case "barrier synchronises" `Quick test_barrier_synchronises;
    Alcotest.test_case "partial barrier" `Quick
      test_partial_barrier_ignores_nonparticipants;
    Alcotest.test_case "unsatisfiable barrier" `Quick
      test_unsatisfiable_barrier_deadlocks;
    Alcotest.test_case "occupancy limits blocks" `Quick
      test_occupancy_limits_blocks;
    Alcotest.test_case "oversized kernel rejected" `Quick
      test_kernel_too_big_rejected;
    Alcotest.test_case "spilling costs" `Quick test_spill_slows;
    Alcotest.test_case "fifo vs leftover" `Quick test_fifo_vs_leftover;
    Alcotest.test_case "streams vs serial" `Quick test_streams_vs_serial;
    Alcotest.test_case "report accounting" `Quick test_report_accounting;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "Volta fp32 issue cost" `Quick test_volta_fp32_issue;
    Alcotest.test_case "trailing barrier finishes at release" `Quick
      test_trailing_barrier;
  ]
