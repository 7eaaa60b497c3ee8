(* The analytical cost model: monotonicity of the static roofline, the
   probe picker's tie rules and probe-fit behaviour.
   Candidates come from a real Search.search over the synthetic tunable
   kernel, so the fused registers / shared memory / partitions are the
   ones the model sees in production. *)

open Hfuse_core
module Cm = Hfuse_costmodel

let k_tunable =
  {|
__global__ void t(float* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { a[i] = a[i] + 1.0f; }
}
|}

let info = Test_util.info_of_source

let tun ?(block = (256, 1, 1)) ?(regs = 32) () =
  info ~block ~regs ~tunability:(Kernel_info.Tunable { multiple_of = 32 })
    k_tunable

let lim = Occupancy.pascal_volta_limits
let arch = List.hd Gpusim.Arch.all

(* every enumerated candidate of the tunable pair, via a free profile *)
let candidates ?(d0 = 1024) () =
  let r =
    Search.search ~limits:lim
      ~profile:(List.map (fun _ -> 1.0))
      ~d0 (tun ()) (tun ())
  in
  List.map (fun (c : Search.candidate) -> (c.fused, c.config)) r.all

let inputs () = Cm.of_pair ~limits:lim ~arch (tun ()) (tun ())

let d1_of ((_, cfg) : Hfuse.t * Search.config) =
  cfg.Search.partition.Partition.d1

let unbounded cands =
  List.filter
    (fun ((_, cfg) : Hfuse.t * Search.config) -> cfg.Search.reg_bound = None)
    cands

let score_of inp ((fused, config) : Hfuse.t * Search.config) =
  Cm.score inp ~fused ~config

(* -- static roofline --------------------------------------------------- *)

let test_of_pair_defaults () =
  let inp = inputs () in
  Alcotest.(check (float 0.)) "cal1 raw" 1.0 inp.Cm.cal1;
  Alcotest.(check (float 0.)) "cal2 raw" 1.0 inp.Cm.cal2;
  Alcotest.(check bool) "no probe model" true (inp.Cm.probe = None);
  Alcotest.(check int) "work1 = grid x block" (8 * 256) inp.Cm.work1

let test_rank_shape () =
  let cands = candidates () in
  let scores = Cm.rank (inputs ()) cands in
  Alcotest.(check int) "one score per candidate" (List.length cands)
    (List.length scores);
  List.iter
    (fun s -> Alcotest.(check bool) "finite and positive" true (s > 0.))
    scores

let test_starved_scores_worse () =
  (* the pair is symmetric, so the even split exposes the least
     latency; the further a partition starves one side, the worse its
     score must get — monotonically along each flank *)
  let inp = inputs () in
  let unb =
    List.sort
      (fun a b -> compare (d1_of a) (d1_of b))
      (unbounded (candidates ()))
  in
  let scores = List.map (fun c -> (d1_of c, score_of inp c)) unb in
  let even = List.assoc 512 scores in
  List.iter
    (fun (d1, s) ->
      if d1 <> 512 then
        Alcotest.(check bool)
          (Printf.sprintf "d1=%d worse than even split" d1)
          true (s > even))
    scores;
  (* extreme starvation is the worst of all *)
  let extreme = List.assoc 128 scores in
  List.iter
    (fun (d1, s) ->
      if d1 <> 128 && d1 <> 896 then
        Alcotest.(check bool)
          (Printf.sprintf "d1=%d better than extreme" d1)
          true (s < extreme))
    scores

let test_spill_monotone () =
  (* same partition, same residency, deeper spill: score must get
     worse.  At 512 threads every bound from 32 down leaves b
     thread-limited (2048/512 = 4 blocks), so only the spill depth
     differs.  (Unbounded is NOT comparable: the 36-register estimate
     caps residency at 3 blocks, so a bound that lifts b to 4 may
     legitimately score better — that is the point of Fig. 6's r0.) *)
  let inp = inputs () in
  let fused, config =
    List.find (fun c -> d1_of c = 256) (unbounded (candidates ~d0:512 ()))
  in
  let with_bound r = { config with Search.reg_bound = r } in
  let s_32 = Cm.score inp ~fused ~config:(with_bound (Some 32)) in
  let s_24 = Cm.score inp ~fused ~config:(with_bound (Some 24)) in
  let s_16 = Cm.score inp ~fused ~config:(with_bound (Some 16)) in
  Alcotest.(check bool) "fused kernel spills under 32" true
    (fused.Hfuse.regs > 32);
  Alcotest.(check bool) "deeper spill is worse (24 vs 32)" true (s_24 > s_32);
  Alcotest.(check bool) "deeper spill is worse (16 vs 24)" true (s_16 > s_24)

let test_unrunnable_scores_infinite () =
  (* a device whose SM cannot host even one 1024-thread block *)
  let tiny = { lim with Occupancy.max_threads_per_sm = 512 } in
  let inp = Cm.of_pair ~limits:tiny ~arch (tun ()) (tun ()) in
  let c = List.hd (unbounded (candidates ())) in
  let fused, config = c in
  Alcotest.(check bool) "zero residency is infinite" true
    (Cm.score inp ~fused ~config = Float.infinity)

(* -- solo calibration -------------------------------------------------- *)

let test_calibrate () =
  let inp = inputs () in
  let cal = Cm.calibrate inp ~solo1:2000. ~solo2:1000. in
  Alcotest.(check bool) "cal1 positive" true (cal.Cm.cal1 > 0.);
  Alcotest.(check bool) "cal2 positive" true (cal.Cm.cal2 > 0.);
  (* the pair is symmetric, so doubling kernel 1's observed solo time
     doubles its multiplier relative to kernel 2's *)
  Alcotest.(check (float 1e-9)) "ratio follows observations" 2.0
    (cal.Cm.cal1 /. cal.Cm.cal2);
  (* unusable observations leave the model uncalibrated *)
  let raw = Cm.calibrate inp ~solo1:Float.nan ~solo2:(-1.) in
  Alcotest.(check (float 0.)) "nan solo ignored" 1.0 raw.Cm.cal1;
  Alcotest.(check (float 0.)) "negative solo ignored" 1.0 raw.Cm.cal2

let test_calibration_shifts_ranking () =
  (* make kernel 1 observably 8x the cost of kernel 2: the model must
     hand kernel 1 the bigger thread share *)
  let inp = inputs () in
  let cal = Cm.calibrate inp ~solo1:8000. ~solo2:1000. in
  let unb = unbounded (candidates ()) in
  let scores = List.map (fun c -> (d1_of c, score_of cal c)) unb in
  let best_d1, _ =
    List.fold_left
      (fun (bd, bs) (d, s) -> if s < bs then (d, s) else (bd, bs))
      (0, Float.infinity) scores
  in
  Alcotest.(check bool) "kernel 1 gets the majority" true (best_d1 > 512)

(* -- probe fits -------------------------------------------------------- *)

(* synthesize probe times from a known family and check the fit
   recovers it: floor + max(l1/(b*d1), l2/(b*d2)) *)
let synth_time inp (floor, l1, l2) ((fused, config) : Hfuse.t * Search.config)
    =
  let { Partition.d1; d2 } = config.Search.partition in
  let eff =
    match config.Search.reg_bound with
    | Some r -> min r fused.Hfuse.regs
    | None -> fused.Hfuse.regs
  in
  let b =
    Occupancy.blocks_per_sm inp.Cm.limits ~regs:eff ~threads:(d1 + d2)
      ~smem:(Kernel_info.smem_total (Hfuse.info fused))
  in
  floor
  +. Float.max
       (l1 /. float_of_int (b * d1))
       (l2 /. float_of_int (b * d2))

let probe_extremes cands =
  match Cm.pick_probes cands with
  | Some { Cm.lo; mid = Some mid; hi; _ } -> (lo, mid, hi)
  | _ -> Alcotest.fail "expected lo, mid and hi probes"

(* the picker's tie rules, over the synthetic pair's candidates: the
   unbounded d1 run 128..896 in steps of 128, so the middle is 512 *)
let test_pick_probes () =
  let cands = candidates () in
  let unb = unbounded cands in
  let pick cs =
    match Cm.pick_probes cs with
    | Some p -> p
    | None -> Alcotest.fail "expected probes"
  in
  let d1s = List.map d1_of in
  let p = pick cands in
  Alcotest.(check (list int)) "lo, mid, hi by d1" [ 128; 512; 896 ]
    (d1s (p.Cm.lo :: Option.to_list p.Cm.mid @ [ p.Cm.hi ]));
  (* a copy of an extreme later in the list loses the tie *)
  let copy (f, cfg) = (f, cfg) in
  Alcotest.(check bool) "a copy is another candidate" false
    (copy p.Cm.lo == p.Cm.lo);
  let tied = unb @ [ copy p.Cm.lo; copy p.Cm.hi ] in
  let pt = pick tied in
  Alcotest.(check bool) "first lo wins a tie" true (pt.Cm.lo == p.Cm.lo);
  Alcotest.(check bool) "first hi wins a tie" true (pt.Cm.hi == p.Cm.hi);
  (* without 512, 384 and 640 are equally near the middle: the earlier
     one wins, in whichever order the list gives them *)
  let no_512 = List.filter (fun c -> d1_of c <> 512) unb in
  Alcotest.(check (list int)) "earliest mid wins a tie" [ 384 ]
    (d1s (Option.to_list (pick no_512).Cm.mid));
  Alcotest.(check (list int)) "earliest mid wins a tie, reversed" [ 640 ]
    (d1s (Option.to_list (pick (List.rev no_512)).Cm.mid));
  (* every member an extreme: no mid *)
  let ends = [ p.Cm.lo; p.Cm.hi ] in
  Alcotest.(check bool) "no mid between two extremes" true
    ((pick ends).Cm.mid = None);
  Alcotest.(check bool) "one unbounded candidate picks nothing" true
    (Cm.pick_probes [ p.Cm.lo ] = None);
  (* the capped groups: the spilling candidates' lo, mid and hi; a
     group of one is probed once *)
  let spilling =
    List.filter
      (fun ((f, cfg) : Hfuse.t * Search.config) ->
        match cfg.Search.reg_bound with
        | Some r -> f.Hfuse.regs > r
        | None -> false)
      cands
  in
  Alcotest.(check (list int)) "capped lo, mid, hi" [ 128; 512; 896 ]
    (d1s p.Cm.capped);
  let one = List.nth spilling 2 in
  let p1 = pick (ends @ [ one ]) in
  Alcotest.(check bool) "a capped group whose lo is its hi is one probe"
    true
    (match p1.Cm.capped with [ c ] -> c == one | _ -> false)

let test_probe_fit_recovers_family () =
  let inp = inputs () in
  let cands = candidates () in
  let fam = (0.02, 30., 20.) in
  let t = synth_time inp fam in
  let lo, mid, hi = probe_extremes cands in
  let inp =
    Cm.calibrate_probes inp ~lo:(lo, t lo) ~mid:(mid, t mid) ~hi:(hi, t hi) ()
  in
  (match inp.Cm.probe with
  | None -> Alcotest.fail "expected a probe model"
  | Some p ->
      Alcotest.(check bool) "floor recovered" true
        (Float.abs (p.Cm.p_unb.Cm.f_floor -. 0.02) < 1e-6);
      Alcotest.(check int) "three probe times anchored" 3
        (List.length p.Cm.p_times));
  (* every unbounded candidate is now predicted at its true time: the
     probes anchor exactly, the rest interpolate on the recovered
     family *)
  List.iter
    (fun c ->
      let fused, config = c in
      let s = Cm.score inp ~fused ~config in
      Alcotest.(check bool)
        (Printf.sprintf "d1=%d predicted on family" (d1_of c))
        true
        (Float.abs (s -. t c) < 1e-6))
    (unbounded cands)

let test_probe_no_mid_floor_zero () =
  let inp = inputs () in
  let cands = candidates () in
  let lo, _, hi = probe_extremes cands in
  let t = synth_time inp (0., 30., 20.) in
  let inp = Cm.calibrate_probes inp ~lo:(lo, t lo) ~hi:(hi, t hi) () in
  match inp.Cm.probe with
  | None -> Alcotest.fail "expected a probe model"
  | Some p ->
      Alcotest.(check (float 0.)) "no middle probe, floor 0" 0.
        p.Cm.p_unb.Cm.f_floor

let test_probe_unusable_extreme_disables () =
  let inp = inputs () in
  let cands = candidates () in
  let lo, mid, hi = probe_extremes cands in
  let t = synth_time inp (0., 30., 20.) in
  (* a failed profile (infinite time) on one extreme *)
  let inp1 =
    Cm.calibrate_probes inp ~lo:(lo, Float.infinity) ~mid:(mid, t mid)
      ~hi:(hi, t hi) ()
  in
  Alcotest.(check bool) "failed extreme disables probes" true
    (inp1.Cm.probe = None);
  (* a register-bounded candidate passed as an unbounded extreme *)
  let bounded =
    List.find
      (fun ((_, cfg) : Hfuse.t * Search.config) -> cfg.Search.reg_bound <> None)
      cands
  in
  let inp2 =
    Cm.calibrate_probes inp ~lo:(bounded, 1.0) ~hi:(hi, t hi) ()
  in
  Alcotest.(check bool) "bounded extreme disables probes" true
    (inp2.Cm.probe = None)

let test_probe_capped_family () =
  let inp = inputs () in
  let cands = candidates () in
  let lo, mid, hi = probe_extremes cands in
  let t_unb = synth_time inp (0.01, 30., 20.) in
  (* the capped group lives on its own, slower family *)
  let t_cap = synth_time inp (0.05, 90., 60.) in
  let spilling =
    List.filter
      (fun ((f, cfg) : Hfuse.t * Search.config) ->
        match cfg.Search.reg_bound with
        | Some r -> f.Hfuse.regs > r
        | None -> false)
      cands
  in
  Alcotest.(check bool) "pair has spilling candidates" true
    (List.length spilling >= 2);
  let r0 =
    match (List.hd spilling : Hfuse.t * Search.config) with
    | _, { Search.reg_bound = Some r; _ } -> r
    | _ -> assert false
  in
  let capped = List.map (fun c -> (c, t_cap c)) spilling in
  let inp =
    Cm.calibrate_probes inp ~lo:(lo, t_unb lo) ~mid:(mid, t_unb mid) ~capped
      ~hi:(hi, t_unb hi) ()
  in
  (match inp.Cm.probe with
  | None -> Alcotest.fail "expected a probe model"
  | Some p ->
      Alcotest.(check bool) "capped family fitted for the bound" true
        (List.mem_assoc r0 p.Cm.p_capped));
  (* capped candidates are predicted on their own family, not the
     unbounded one under a static multiplier *)
  List.iter
    (fun c ->
      let fused, config = c in
      let s = Cm.score inp ~fused ~config in
      Alcotest.(check bool) "capped candidate on capped family" true
        (Float.abs (s -. t_cap c) < 1e-6))
    spilling;
  (* a single capped probe is not enough for a family *)
  let inp1 =
    Cm.calibrate_probes (inputs ()) ~lo:(lo, t_unb lo) ~mid:(mid, t_unb mid)
      ~capped:[ List.hd capped ] ~hi:(hi, t_unb hi) ()
  in
  match inp1.Cm.probe with
  | None -> Alcotest.fail "expected a probe model"
  | Some p ->
      Alcotest.(check bool) "one probe fits no family" true
        (p.Cm.p_capped = [])

(* -- defaults ------------------------------------------------------------ *)

let test_default_top_k () =
  Alcotest.(check bool) "window is sane" true
    (Cm.default_top_k >= 1 && Cm.default_top_k <= 16)

let suite =
  [
    Alcotest.test_case "of_pair defaults" `Quick test_of_pair_defaults;
    Alcotest.test_case "rank shape" `Quick test_rank_shape;
    Alcotest.test_case "starved partitions score worse" `Quick
      test_starved_scores_worse;
    Alcotest.test_case "spill is monotone at fixed residency" `Quick
      test_spill_monotone;
    Alcotest.test_case "unrunnable candidate scores infinite" `Quick
      test_unrunnable_scores_infinite;
    Alcotest.test_case "solo calibration" `Quick test_calibrate;
    Alcotest.test_case "calibration shifts the ranking" `Quick
      test_calibration_shifts_ranking;
    Alcotest.test_case "probe picker tie rules" `Quick test_pick_probes;
    Alcotest.test_case "probe fit recovers the family" `Quick
      test_probe_fit_recovers_family;
    Alcotest.test_case "no middle probe means floor zero" `Quick
      test_probe_no_mid_floor_zero;
    Alcotest.test_case "unusable extreme disables probes" `Quick
      test_probe_unusable_extreme_disables;
    Alcotest.test_case "capped probes fit their own family" `Quick
      test_probe_capped_family;
    Alcotest.test_case "default top-k" `Quick test_default_top_k;
  ]
