(* Thread-space partition enumeration and the Fig. 6 search, driven by
   synthetic cost functions. *)

open Hfuse_core

let k_tunable =
  {|
__global__ void t(float* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { a[i] = a[i] + 1.0f; }
}
|}

let info = Test_util.info_of_source

(* 32 regs/thread: high enough that the register bound r0 (32 at full
   SM thread load) stays below the fused estimate (36) — the search
   skips the bounded profile when the bound would not constrain the
   kernel, and these tests want both variants profiled *)
let tun ?(block = (256, 1, 1)) ?(regs = 32) () =
  info ~block ~regs ~tunability:(Kernel_info.Tunable { multiple_of = 32 })
    k_tunable

let fixed d = info ~block:(d, 1, 1) ~tunability:Kernel_info.Fixed k_tunable

(* -- Partition --------------------------------------------------------- *)

let test_enumerate_tunable () =
  let parts = Partition.enumerate (tun ()) (tun ()) ~d0:1024 in
  Alcotest.(check int) "7 partitions at granularity 128" 7
    (List.length parts);
  List.iter
    (fun { Partition.d1; d2 } ->
      Alcotest.(check int) "sums to d0" 1024 (d1 + d2);
      Alcotest.(check int) "d1 multiple of 128" 0 (d1 mod 128))
    parts

let test_enumerate_fixed_pair () =
  let parts = Partition.enumerate (fixed 256) (fixed 128) ~d0:999 in
  Alcotest.(check int) "single partition" 1 (List.length parts);
  let p = List.hd parts in
  Alcotest.(check int) "d1 native" 256 p.Partition.d1;
  Alcotest.(check int) "d2 native" 128 p.Partition.d2

let test_enumerate_fixed_oversized () =
  Alcotest.(check int) "fixed pair too big" 0
    (List.length (Partition.enumerate (fixed 768) (fixed 512) ~d0:1024))

let test_enumerate_mixed () =
  (* fixed 128 + tunable: partition fixed at the fixed side's size *)
  let parts = Partition.enumerate (fixed 128) (tun ()) ~d0:512 in
  Alcotest.(check int) "one partition" 1 (List.length parts);
  Alcotest.(check int) "tunable takes rest" 384 (List.hd parts).Partition.d2

let test_enumerate_2d_constraint () =
  (* a (x, 16) kernel needs d1 divisible by 16 — all multiples of 128
     qualify, but the constraint path must be exercised *)
  let bn = tun ~block:(32, 16, 1) () in
  let parts = Partition.enumerate bn (tun ()) ~d0:1024 in
  Alcotest.(check int) "still 7" 7 (List.length parts)

let test_enumerate_max_threads () =
  (* regression: the block-size cap is a parameter, not a hard-coded
     1024 — a fixed pair exceeding a smaller device cap is rejected *)
  Alcotest.(check int) "fixed pair over cap" 0
    (List.length
       (Partition.enumerate ~max_threads:256 (fixed 256) (fixed 128) ~d0:0));
  Alcotest.(check int) "fixed pair within cap" 1
    (List.length
       (Partition.enumerate ~max_threads:384 (fixed 256) (fixed 128) ~d0:0))

let test_naive_even () =
  match Partition.naive (tun ()) (tun ()) ~d0:1024 with
  | Some { Partition.d1 = 512; d2 = 512 } -> ()
  | Some p -> Alcotest.failf "expected 512/512, got %d/%d" p.d1 p.d2
  | None -> Alcotest.fail "expected a partition"

(* -- Search ------------------------------------------------------------ *)

let lim = Occupancy.pascal_volta_limits

(* a per-candidate cost as the search's whole-list profile hook *)
let each cost =
  List.map (fun ((f : Hfuse.t), (c : Search.config)) ->
      cost f ~reg_bound:c.reg_bound)

let test_search_minimises () =
  (* synthetic cost: prefers d1 = 768, and the register bound always
     helps by 10% *)
  let profile (f : Hfuse.t) ~reg_bound =
    let base = float_of_int (abs (f.d1 - 768) + 100) in
    match reg_bound with Some _ -> base *. 0.9 | None -> base
  in
  let r =
    Search.search ~limits:lim ~profile:(each profile) ~d0:1024 (tun ())
      (tun ())
  in
  Alcotest.(check int) "best d1" 768 r.best.fused.d1;
  Alcotest.(check bool) "bound chosen" true
    (r.best.config.reg_bound <> None);
  (* every partition was profiled both ways (bound computable here) *)
  Alcotest.(check int) "candidate count" 14 (List.length r.all)

let test_search_prefers_unbounded_when_better () =
  let profile (f : Hfuse.t) ~reg_bound =
    let base = float_of_int (abs (f.d1 - 512) + 100) in
    match reg_bound with Some _ -> base *. 2.0 | None -> base
  in
  let r =
    Search.search ~limits:lim ~profile:(each profile) ~d0:1024 (tun ())
      (tun ())
  in
  Alcotest.(check int) "best d1" 512 r.best.fused.d1;
  Alcotest.(check (option int)) "no bound" None r.best.config.reg_bound

let test_search_no_partition () =
  match
    Search.search ~limits:lim
      ~profile:(List.map (fun _ -> 1.0))
      ~d0:1024 (fixed 768) (fixed 512)
  with
  | exception Search.No_valid_partition _ -> ()
  | _ -> Alcotest.fail "expected No_valid_partition"

let test_search_counts_profile_calls () =
  let calls = ref 0 in
  let profile _ ~reg_bound:_ =
    incr calls;
    1.0
  in
  ignore
    (Search.search ~limits:lim ~profile:(each profile) ~d0:512 (tun ())
       (tun ()));
  (* 3 partitions (128..384) x 2 variants *)
  Alcotest.(check int) "profile calls" 6 !calls

let test_search_records_rejections () =
  (* a kernel carrying a barrier that waits for 256 threads: the
     d1 = 128 partition is unsafe and must never reach the profiler *)
  let k_wide =
    {|
__global__ void wide(float* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  asm("bar.sync 5, 256;");
  if (i < n) { a[i] = a[i] + 1.0f; }
}
|}
  in
  let k1 =
    info ~block:(256, 1, 1) ~regs:32
      ~tunability:(Kernel_info.Tunable { multiple_of = 32 })
      k_wide
  in
  let profiled = ref [] in
  let profile (f : Hfuse.t) ~reg_bound:_ =
    profiled := f.d1 :: !profiled;
    1.0
  in
  let r =
    Search.search ~limits:lim ~profile:(each profile) ~d0:512 k1 (tun ())
  in
  Alcotest.(check int) "one rejection" 1 (List.length r.rejected);
  let p, ds = List.hd r.rejected in
  Alcotest.(check int) "rejected d1" 128 p.Partition.d1;
  Alcotest.(check bool) "rejected with errors" false
    (Hfuse_analysis.Diag.is_clean ds);
  Alcotest.(check bool) "never profiled" false (List.mem 128 !profiled);
  Alcotest.(check int) "2 safe partitions x 2 variants" 4
    (List.length r.all)

let test_search_skips_noop_bound () =
  (* regression: at 8 regs/thread the bound r0 (32) sits above the fused
     estimate (12) — profiling the bounded build would re-measure the
     identical kernel, so only the unbounded variant runs *)
  let calls = ref 0 in
  let profile _ ~reg_bound =
    incr calls;
    Alcotest.(check (option int)) "only unbounded" None reg_bound;
    1.0
  in
  ignore
    (Search.search ~limits:lim ~profile:(each profile) ~d0:512 (tun ~regs:8 ())
       (tun ~regs:8 ()));
  Alcotest.(check int) "3 partitions x 1 variant" 3 !calls

(* -- The batched phase-2 evaluator ------------------------------------- *)

let sig_of (r : Search.result) =
  List.map
    (fun (c : Search.candidate) ->
      (c.fused.d1, c.fused.d2, c.config.reg_bound, c.time))
    r.all

let cand_sig (c : Search.candidate) =
  (c.fused.d1, c.fused.d2, c.config.reg_bound, c.time)

let test_search_batch_matches_serial () =
  let cost (f : Hfuse.t) ~reg_bound =
    let base = float_of_int (abs (f.d1 - 768) + 100) in
    match reg_bound with
    | Some r -> (base *. 0.9) +. float_of_int (r mod 7)
    | None -> base
  in
  let batches = ref 0 in
  let profile batch =
    incr batches;
    each cost batch
  in
  let r = Search.search ~limits:lim ~profile ~d0:1024 (tun ()) (tun ()) in
  Alcotest.(check int) "whole candidate list in one batch" 1 !batches;
  (* each candidate carries its own cost, and the best is the first
     strictly-fastest in search order *)
  let serial =
    List.map
      (fun (c : Search.candidate) ->
        ( c.fused.d1,
          c.fused.d2,
          c.config.reg_bound,
          cost c.fused ~reg_bound:c.config.reg_bound ))
      r.all
  in
  let first_fastest =
    List.fold_left
      (fun (b : Search.candidate) (c : Search.candidate) ->
        if c.time < b.time then c else b)
      (List.hd r.all) r.all
  in
  Alcotest.(check bool) "all identical" true (sig_of r = serial);
  Alcotest.(check bool) "best identical" true
    (cand_sig r.best = cand_sig first_fastest)

let test_search_batch_length_mismatch () =
  (* the hook must return one time per candidate, in order *)
  let profile batch = List.map (fun _ -> 1.0) (List.tl batch) in
  match Search.search ~limits:lim ~profile ~d0:1024 (tun ()) (tun ())
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* fanning the batch over a domain pool is bit-identical to the serial
   path, for any worker count and any (pure) cost surface *)
let pool_batch_prop =
  QCheck.Test.make
    ~name:"batched search over a domain pool is bit-identical to serial"
    ~count:10
    QCheck.(pair (int_range 1 8) (int_range 0 1000))
    (fun (jobs, seed) ->
      let cost (f : Hfuse.t) ~reg_bound =
        let r = match reg_bound with None -> 1 | Some r -> r + 2 in
        float_of_int ((((f.d1 * 37) + (r * 101) + seed) mod 997) + 3)
      in
      let serial =
        Search.search ~limits:lim ~profile:(each cost) ~d0:1024 (tun ())
          (tun ())
      in
      let pooled batch =
        Hfuse_parallel.Pool.with_pool jobs (fun p ->
            Hfuse_parallel.Pool.map_list p
              (fun (f, (c : Search.config)) -> cost f ~reg_bound:c.reg_bound)
              batch)
      in
      let r =
        Search.search ~limits:lim ~profile:pooled ~d0:1024
          (tun ()) (tun ())
      in
      sig_of r = sig_of serial && cand_sig r.best = cand_sig serial.best)

(* -- phase 1.5: analytical ranking and top-k pruning ------------------- *)

(* a deterministic stand-in for the cost model: arbitrary but fixed
   scores, decorrelated from the cost surface by the seed *)
let mock_rank seed cands =
  List.map
    (fun ((f : Hfuse.t), (c : Search.config)) ->
      let r = match c.reg_bound with None -> 1 | Some r -> r + 2 in
      float_of_int ((((f.d1 * 13) + (r * 7) + seed) mod 101) + 1))
    cands

let conf_sig (c : Search.candidate) =
  (c.fused.d1, c.fused.d2, c.config.reg_bound)

let rec is_subseq xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xt, y :: yt -> if x = y then is_subseq xt yt else is_subseq xs yt

let test_prune_keeps_top_k () =
  let cost (f : Hfuse.t) ~reg_bound =
    let r = match reg_bound with None -> 0 | Some r -> r in
    float_of_int (abs (f.d1 - 640) + r + 1)
  in
  let exhaustive =
    Search.search ~limits:lim ~profile:(each cost) ~d0:1024 (tun ()) (tun ())
  in
  let n = List.length exhaustive.all in
  let rank = mock_rank 0 in
  let scores =
    rank
      (List.map
         (fun (c : Search.candidate) -> (c.fused, c.config))
         exhaustive.all)
  in
  let k = 3 in
  let r =
    Search.search ~limits:lim ~profile:(each cost) ~rank ~top_k:k ~d0:1024
      (tun ())
      (tun ())
  in
  Alcotest.(check int) "window size" k (List.length r.all);
  Alcotest.(check int) "rest pruned, un-profiled" (n - k)
    (List.length r.pruned);
  Alcotest.(check int) "survivor scores recorded" k (List.length r.scores);
  (* the survivors are exactly the k best-scored; ties keep search
     order *)
  let kth = List.nth (List.sort compare scores) (k - 1) in
  List.iter
    (fun s ->
      Alcotest.(check bool) "survivor within the score window" true (s <= kth))
    r.scores;
  List.iter
    (fun (_, _, s) ->
      Alcotest.(check bool) "pruned outside the score window" true (s >= kth))
    r.pruned;
  (* survivors keep search order and their profiled times are the
     exhaustive run's times for the same configurations *)
  Alcotest.(check bool) "survivors are a subsequence of the sweep" true
    (is_subseq (List.map cand_sig r.all) (sig_of exhaustive));
  (* the best is the fastest among the survivors only *)
  List.iter
    (fun (c : Search.candidate) ->
      Alcotest.(check bool) "best no slower than any survivor" true
        (r.best.time <= c.time))
    r.all

(* a top-k at or above the candidate count — or an absent rank — must
   leave the search bit-identical to the exhaustive sweep, for any
   worker count (the ISSUE's prune-identity property) *)
let prune_identity_prop =
  QCheck.Test.make
    ~name:"non-binding top-k is bit-identical to the exhaustive sweep"
    ~count:10
    QCheck.(triple (int_range 1 4) (int_range 0 1000) (int_range 0 20))
    (fun (jobs, seed, slack) ->
      let cost (f : Hfuse.t) ~reg_bound =
        let r = match reg_bound with None -> 1 | Some r -> r + 2 in
        float_of_int ((((f.d1 * 37) + (r * 101) + seed) mod 997) + 3)
      in
      let serial =
        Search.search ~limits:lim ~profile:(each cost) ~d0:1024 (tun ())
          (tun ())
      in
      let n = List.length serial.all in
      let pooled batch =
        Hfuse_parallel.Pool.with_pool jobs (fun p ->
            Hfuse_parallel.Pool.map_list p
              (fun (f, (c : Search.config)) -> cost f ~reg_bound:c.reg_bound)
              batch)
      in
      let ranked =
        Search.search ~limits:lim ~profile:pooled
          ~rank:(mock_rank seed) ~top_k:(n + slack) ~d0:1024 (tun ()) (tun ())
      in
      let unranked =
        Search.search ~limits:lim ~profile:pooled
          ~top_k:1 (* no rank: scores are empty, top_k cannot bite *)
          ~d0:1024 (tun ()) (tun ())
      in
      sig_of ranked = sig_of serial
      && cand_sig ranked.best = cand_sig serial.best
      && ranked.pruned = []
      && List.length ranked.scores = n
      && sig_of unranked = sig_of serial
      && unranked.pruned = [])

(* any top-k yields a window of min(n, max(1, k)) survivors, and
   survivors + pruned partition the exhaustive candidate set *)
let prune_window_prop =
  QCheck.Test.make
    ~name:"top-k window size and candidate-set partition" ~count:20
    QCheck.(pair (int_range (-2) 20) (int_range 0 1000))
    (fun (k, seed) ->
      let cost (f : Hfuse.t) ~reg_bound =
        let r = match reg_bound with None -> 1 | Some r -> r + 2 in
        float_of_int ((((f.d1 * 37) + (r * 101) + seed) mod 997) + 3)
      in
      let exhaustive =
        Search.search ~limits:lim ~profile:(each cost) ~d0:1024 (tun ())
          (tun ())
      in
      let n = List.length exhaustive.all in
      let r =
        Search.search ~limits:lim ~profile:(each cost) ~rank:(mock_rank seed)
          ~top_k:k ~d0:1024 (tun ()) (tun ())
      in
      let kept = List.map conf_sig r.all in
      let cut =
        List.map
          (fun ((f : Hfuse.t), (c : Search.config), _) ->
            (f.d1, f.d2, c.reg_bound))
          r.pruned
      in
      List.length kept = min n (max 1 k)
      && List.sort compare (kept @ cut)
         = List.sort compare (List.map conf_sig exhaustive.all))

let test_naive_search () =
  match Search.naive ~d0:1024 (tun ()) (tun ()) with
  | Some f ->
      Alcotest.(check int) "even split d1" 512 f.d1;
      Alcotest.(check int) "even split d2" 512 f.d2
  | None -> Alcotest.fail "expected naive fusion"

(* partitions must respect tunability under random d0 *)
let partition_prop =
  QCheck.Test.make ~name:"enumerated partitions are well-formed" ~count:100
    QCheck.(int_range 2 8)
    (fun k ->
      let d0 = k * 128 in
      let parts = Partition.enumerate (tun ()) (tun ()) ~d0 in
      List.length parts = k - 1
      && List.for_all
           (fun { Partition.d1; d2 } ->
             d1 > 0 && d2 > 0 && d1 + d2 = d0 && d1 mod 128 = 0)
           parts)

let suite =
  [
    Alcotest.test_case "enumerate tunable" `Quick test_enumerate_tunable;
    Alcotest.test_case "enumerate fixed pair" `Quick test_enumerate_fixed_pair;
    Alcotest.test_case "enumerate fixed oversized" `Quick
      test_enumerate_fixed_oversized;
    Alcotest.test_case "enumerate mixed" `Quick test_enumerate_mixed;
    Alcotest.test_case "enumerate 2-D constraint" `Quick
      test_enumerate_2d_constraint;
    Alcotest.test_case "enumerate max-threads cap" `Quick
      test_enumerate_max_threads;
    Alcotest.test_case "naive even split" `Quick test_naive_even;
    Alcotest.test_case "search minimises" `Quick test_search_minimises;
    Alcotest.test_case "search prefers unbounded" `Quick
      test_search_prefers_unbounded_when_better;
    Alcotest.test_case "search without partitions" `Quick
      test_search_no_partition;
    Alcotest.test_case "search profile-call count" `Quick
      test_search_counts_profile_calls;
    Alcotest.test_case "search records verifier rejections" `Quick
      test_search_records_rejections;
    Alcotest.test_case "search skips no-op register bound" `Quick
      test_search_skips_noop_bound;
    Alcotest.test_case "search batch hook matches serial" `Quick
      test_search_batch_matches_serial;
    Alcotest.test_case "search batch length mismatch" `Quick
      test_search_batch_length_mismatch;
    Alcotest.test_case "prune keeps the top-k best-scored" `Quick
      test_prune_keeps_top_k;
    Alcotest.test_case "naive search" `Quick test_naive_search;
  ]
  @ Test_util.qcheck_cases
      [ partition_prop; pool_batch_prop; prune_identity_prop;
        prune_window_prop ]
