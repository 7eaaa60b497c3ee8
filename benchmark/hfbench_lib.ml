(* The pure half of the hfbench harness: the metric catalogue, the
   seeded op plans, the statistics and the parent-vs-change comparison
   rule.  Nothing here runs the simulator, so the unit tests are fast. *)

module Json = Hfuse_profiler.Report.Json

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type workload = Paper_warm | Fleet_cold | Daemon_mixed

let workloads = [ Paper_warm; Fleet_cold; Daemon_mixed ]

let workload_name = function
  | Paper_warm -> "paper-warm"
  | Fleet_cold -> "fleet-cold"
  | Daemon_mixed -> "daemon-mixed"

let workload_of_name s =
  List.find_opt (fun w -> workload_name w = s) workloads

(* Why each workload exists: which layers it stresses and which it
   bypasses.  BENCHMARK.json carries the same lines. *)
let workload_why = function
  | Paper_warm ->
      "3 paper pairs at representative sizes on a root that their cold \
       searches filled, memory cleared per search as in a one-shot CLI run: \
       cache reads and the native replay dominate"
  | Fleet_cold ->
      "15 fleet pairs at size 1, top-k 8, each search cold: many cheap \
       generated and mixed searches across the corpus, one verifier rejection"
  | Daemon_mixed ->
      "a live hfuse serve and one closed-loop client: 80 hot and 24 \
       never-seen searches plus 56 check/fuse requests over the socket"

(* The fixed pair sets.  A seed only permutes the order in which a pass
   visits them (and, for the daemon, interleaves the request classes),
   so every seed does the same work and run-to-run spread measures the
   machine, not the draw.  Seeded subsets were tried first: pair costs
   span two orders of magnitude, so the draw alone moved throughput by
   20% between seeds.

   - the paper set stands in for the 16 Fig. 9 pairs, which a run
     cannot afford: paper-warm fills its root with the set's cold
     searches before it times anything, and the 16 take about 60 s.
     The three pairs are, from the measured costs of all 16 (`hfbench
     costs`, benchmark/README.md), the cheapest warm search
     (Maxpool+Im2Col), the pair at the 16's median warm cost
     (Upsample+Hist) and the pair at the crypto pairs' median
     (Ethash+SHA256).  Their warm costs lie far apart, so the median
     search is always the middle pair's;
   - the fleet sets are strided samples of the canonical fleet order:
     every 72nd pair from offset 43 for fleet-cold and every 46th from
     35 for the daemon's never-seen set.  They reach every kernel
     family, and most of their pairs are cheap generated kernels, as
     in the fleet.  Fleet-cold's offset was chosen from `hfbench costs
     --fleet` so that the pairs around its median lie close together:
     at offset 0 the two middle pairs were 57% apart, and the median
     jumped between them from run to run.  Fleet-cold leaves out the
     sample's two crypto x generated pairs (Ethash+gen051,
     Blake256+gen034): their cold searches take 3-4 s each, three
     quarters of a pass, so a run held only two passes and its median
     rested on two searches.  The never-seen set keeps such pairs.
     The daemon's hot set is every 144th pair from 108, with
     Ethash+gen039 swapped for Maxpool+gen046 (offset 36): each of the
     three set-ups warms the whole hot set, and that one crypto pair's
     cold search (3.4 s) would have tripled it. *)
let paper_pairs = [ ("Maxpool", "Im2Col"); ("Upsample", "Hist"); ("Ethash", "SHA256") ]

let fleet_pairs =
  [
    ("Maxpool", "gen056");
    ("Upsample", "gen026");
    ("Hist", "MulAdd");
    ("Resize", "gen027");
    ("Blur3", "gen026");
    ("Segsum", "gen030");
    ("gen000", "gen044");
    ("gen002", "gen059");
    ("gen014", "gen040");
    ("gen023", "gen034");
    ("gen027", "gen046");
    ("gen033", "gen044");
    ("gen044", "gen046");
    ("gen056", "gen059");
    (* a crypto x dl pair the verifier rejects outright *)
    ("Hist", "SHA256");
  ]

let daemon_hot_pairs =
  [
    ("Maxpool", "gen046");
    ("Upsample", "gen003");
    ("Resize", "gen007");
    ("Segsum", "gen020");
    ("gen002", "gen050");
    ("gen023", "gen024");
    ("gen032", "gen058");
    ("gen053", "gen059");
  ]

(* Blake256+Blur3 is rejected by the verifier. *)
let daemon_cold_pairs =
  [
    ("Maxpool", "gen045"); ("Batchnorm", "gen045"); ("Upsample", "gen046");
    ("Im2Col", "gen050"); ("Hist", "gen053"); ("Ethash", "gen059");
    ("Blake256", "Blur3"); ("Blake2B", "gen003"); ("Resize", "gen027");
    ("MulAdd", "gen044"); ("Blur3", "gen058"); ("Segsum", "gen021");
    ("Segmax", "gen044"); ("gen001", "gen003"); ("gen002", "gen040");
    ("gen007", "gen023"); ("gen014", "gen053"); ("gen021", "gen046");
    ("gen024", "gen045"); ("gen027", "gen050"); ("gen030", "gen059");
    ("gen034", "gen052"); ("gen040", "gen058"); ("gen050", "gen052");
  ]

type verb = Search | Check | Fuse

let verb_name = function Search -> "search" | Check -> "check" | Fuse -> "fuse"

type op = { verb : verb; k1 : string; k2 : string }

let pair_name (k1, k2) = k1 ^ "+" ^ k2
let op_pair o = (o.k1, o.k2)

(* Fisher-Yates over a state seeded by (seed, salt): the salt keeps the
   passes of one run, and the request classes of the daemon, from
   sharing one permutation. *)
let shuffle ~seed ~salt (l : 'a list) : 'a list =
  let st = Random.State.make [| 0x6866; seed; salt |] in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let searches = List.map (fun (k1, k2) -> { verb = Search; k1; k2 })
let take n l = List.filteri (fun i _ -> i < n) l

(* Pair sets of a workload; [smoke] cuts them to the smoke sizes. *)
let paper_set ~smoke = if smoke then take 2 paper_pairs else paper_pairs
let fleet_set ~smoke = if smoke then take 4 fleet_pairs else fleet_pairs

let hot_set ~smoke =
  if smoke then take 4 daemon_hot_pairs else daemon_hot_pairs

let cold_set ~smoke =
  if smoke then take 4 daemon_cold_pairs else daemon_cold_pairs

(* Hot searches per hot pair in the daemon's one pass, and check/fuse
   requests per hot pair.  Full size: 80 hot searches, 24 never-seen
   searches and 56 compile requests; smoke: 12, 4 and 8. *)
let hot_rounds ~smoke = if smoke then 3 else 10
let compiles_per_pair ~smoke = if smoke then 2 else 7

(** The ops of pass [pass] of a workload, in seeded order.  Paper and
    fleet passes visit their pair set once; the daemon's single pass
    interleaves hot searches, never-seen searches and check/fuse
    requests. *)
let pass_plan (w : workload) ~smoke ~seed ~pass : op list =
  let salt = (pass * 8) + Hashtbl.hash (workload_name w) mod 8 in
  match w with
  | Paper_warm -> shuffle ~seed ~salt (searches (paper_set ~smoke))
  | Fleet_cold -> shuffle ~seed ~salt (searches (fleet_set ~smoke))
  | Daemon_mixed ->
      let hot = hot_set ~smoke in
      let rounds n l = List.concat (List.init n (fun _ -> l)) in
      (* the verbs alternate along a pair's requests, starting from a
         different verb on every other pair, so they split evenly *)
      let compile =
        List.concat
          (List.mapi
             (fun i (k1, k2) ->
               List.init (compiles_per_pair ~smoke) (fun j ->
                   { verb = (if (i + j) mod 2 = 0 then Check else Fuse); k1; k2 }))
             hot)
      in
      shuffle ~seed ~salt
        (rounds (hot_rounds ~smoke) (searches hot)
        @ searches (cold_set ~smoke)
        @ compile)

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(** 1-based nearest rank of percentile [p] (an integer percent) among
    [n] samples: the smallest rank covering [p]% of them. *)
let nearest_rank ~p n = max 1 (((p * n) + 99) / 100)

(** Samples strictly above the [p]th percentile's rank. *)
let beyond ~p n = n - nearest_rank ~p n

(** A tail percentile is reported only with at least ten samples
    beyond it; the median is always reported. *)
let reportable ~p n = n > 0 && (p <= 50 || beyond ~p n >= 10)

let percentile ~p (xs : float list) : float option =
  match xs with
  | [] -> None
  | _ ->
      let a = sorted xs in
      Some a.(nearest_rank ~p (Array.length a) - 1)

(** The highest of p90/p95/p99 that {!reportable} admits. *)
let tail_p n =
  List.fold_left (fun acc p -> if reportable ~p n then Some p else acc) None
    [ 90; 95; 99 ]

(** Quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
    (the default "exclusive" method) computes them.  Needs two
    samples. *)
let quartiles (xs : float list) : (float * float * float) option =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then None
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    Some (q 1, q 2, q 3)

let median xs = percentile ~p:50 xs

(* ------------------------------------------------------------------ *)
(* Host-speed calibration                                               *)
(* ------------------------------------------------------------------ *)

(* The host this benchmark was built on shares each core with other
   tenants: for seconds at a time the same code runs up to 1.7 times
   slower, and CPU time follows wall time, so neither hides it.  A
   fixed loop timed next to the work slows by about as much, so every
   end-to-end time is rescaled by it: a calibrated time is the work's
   wall time times [cal_reference_ms] over the loop's time beside it,
   i.e. the time the work would take on a core that runs the loop in
   20 ms.  The loop shares no code with the program and allocates
   nothing, so a change to the program, its heap or its GC settings
   cannot move it; only the core's speed does. *)

(** The calibration loop's time on the reference core, in ms. *)
let cal_reference_ms = 20.0

(** Seconds of timed work after which the next piece of work gets a
    fresh calibration sample before it. *)
let cal_every_s = 0.15

let cal_iterations = 4_500_000
let cal_table = Array.make 8192 0

(** The calibration loop: xorshift steps and read-modify-writes into a
    64 KiB table, the same work on every call.  Returns a checksum so
    the work cannot be optimised away. *)
let calibration_work () =
  Array.fill cal_table 0 (Array.length cal_table) 0;
  let x = ref 0x2545F4914F6CDD1D and acc = ref 0 in
  for _ = 1 to cal_iterations do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let i = (!x lxor !acc) land 8191 in
    let v = cal_table.(i) in
    cal_table.(i) <- (v + !x) land 0xffff;
    acc := !acc + v
  done;
  !acc

(** A time-ordered record of a timed phase: calibration samples (ms)
    and pieces of timed work. *)
type 'a timeline = Cal of float | Work of 'a

(** Each piece of work with its calibration factor: [cal_reference_ms]
    over the mean of the nearest calibration samples before and after
    it (the one side that exists at either end; factor 1 without any). *)
let calibrate (tl : 'a timeline list) : ('a * float) list =
  let a = Array.of_list tl in
  let n = Array.length a in
  let nearest order =
    let seen = Array.make n None and last = ref None in
    List.iter
      (fun i ->
        (match a.(i) with Cal c -> last := Some c | Work _ -> ());
        seen.(i) <- !last)
      order;
    seen
  in
  let before = nearest (List.init n Fun.id)
  and after = nearest (List.init n (fun i -> n - 1 - i)) in
  List.concat
    (List.mapi
       (fun i e ->
         match e with
         | Cal _ -> []
         | Work x ->
             let c =
               match (before.(i), after.(i)) with
               | Some b, Some f -> (b +. f) /. 2.0
               | Some c, None | None, Some c -> c
               | None, None -> cal_reference_ms
             in
             [ (x, cal_reference_ms /. c) ])
       tl)

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                     *)
(* ------------------------------------------------------------------ *)

type better = Lower | Higher

type metric = {
  m_name : string;
  m_unit : string;
  m_better : better;
  m_bound : float option;  (** end-to-end metrics only *)
}

let e2e name unit_ better bound =
  { m_name = name; m_unit = unit_; m_better = better; m_bound = Some bound }

let layer name unit_ better =
  { m_name = name; m_unit = unit_; m_better = better; m_bound = None }

(** Every workload reports every one of these (untraced runs).  The
    times are calibrated (see above); benchmark/README.md gives the
    spreads the bounds are set from. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "ops_per_min" "ops/min" Higher 0.25;
    e2e "search_p50_ms" "ms" Lower 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.15;
  ]

(** Every workload reports every one of these (traced runs).  Times
    and counts are per search op unless named otherwise; the compile
    and simulator passes are per distinct pair. *)
let per_layer =
  [
    layer "profiler.rep_sizes_ms" "ms" Lower;
    layer "kernels.configure_ms" "ms" Lower;
    layer "profiler.native_ms" "ms" Lower;
    layer "profiler.search_ms" "ms" Lower;
    layer "profiler.search_profile_ms" "ms" Lower;
    layer "profiler.search_trace_ms" "ms" Lower;
    layer "profiler.search_self_ms" "ms" Lower;
    layer "profiler.cache_hit_share" "fraction" Higher;
    layer "profiler.cache_stores" "count/op" Lower;
    layer "profiler.traced" "count/op" Lower;
    layer "profiler.trace_hits" "count/op" Higher;
    layer "profiler.trace_merged" "count/op" Higher;
    layer "profiler.trace_mem_mb" "MB" Lower;
    layer "cuda.parse_ms" "ms" Lower;
    layer "frontend.normalize_ms" "ms" Lower;
    layer "core.enumerate_ms" "ms" Lower;
    layer "core.partitions" "count" Lower;
    layer "core.generate_ms" "ms" Lower;
    layer "core.generated" "count" Lower;
    layer "analysis.verify_ms" "ms" Lower;
    layer "analysis.reject_share" "fraction" Lower;
    layer "core.emit_ms" "ms" Lower;
    layer "costmodel.rank_ms" "ms" Lower;
    layer "gpusim.record_ms" "ms" Lower;
    layer "gpusim.record_minstr_per_s" "Minstr/s" Higher;
    layer "gpusim.replay_ms" "ms" Lower;
    layer "gpusim.replay_mcycles_per_s" "Mcycles/s" Higher;
    layer "gpusim.cycles_skipped_share" "fraction" Higher;
    layer "parallel.failures" "count" Lower;
    layer "parallel.retries" "count" Lower;
    layer "trace.unattributed_share" "fraction" Lower;
    layer "trace.overhead_pct" "%" Lower;
  ]

let find_metric name =
  List.find_opt (fun m -> m.m_name = name) (end_to_end @ per_layer)

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* ------------------------------------------------------------------ *)
(* Run records                                                          *)
(* ------------------------------------------------------------------ *)

(** One workload run as the harness reports it: the contract fields of
    the result line plus every metric value. *)
type record = {
  r_workload : string;
  r_seed : int;
  r_seconds : float;
  r_smoke : bool;
  r_trace : bool;
  r_correct : bool;
  r_attempted : int;
  r_failed : int;
  r_metrics : (string * float) list;
}

let num_field k j = Option.bind (Json.member k j) Json.to_float_opt

let record_of_json (j : Json.t) : record option =
  match (Json.member "workload" j, Json.member "metrics" j) with
  | Some (Json.Str w), Some (Json.Obj ms) ->
      let int k = Option.fold ~none:0 ~some:int_of_float (num_field k j) in
      let bool k = Json.member k j = Some (Json.Bool true) in
      Some
        {
          r_workload = w;
          r_seed = int "seed";
          r_seconds = Option.value (num_field "seconds" j) ~default:nan;
          r_smoke = bool "smoke";
          r_trace = bool "trace";
          r_correct = bool "correct";
          r_attempted = int "attempted";
          r_failed = int "failed";
          r_metrics =
            List.filter_map
              (fun (name, v) ->
                Option.map (fun x -> (name, x)) (num_field "value" v))
              ms;
        }
  | _ -> None

(** The run records in a harness JSON file: one record, or a
    multi-workload run's [runs] list. *)
let records_of_json (j : Json.t) : record list =
  match Json.member "runs" j with
  | Some (Json.List rs) -> List.filter_map record_of_json rs
  | _ -> Option.to_list (record_of_json j)

(** A parent run and the change run paired with it must have been made
    with the same settings; [None] when they were, else why not. *)
let pairing_error (p : record) (c : record) : string option =
  let settings r =
    Printf.sprintf "seed %d, seconds %g, smoke %b, trace %b" r.r_seed r.r_seconds
      r.r_smoke r.r_trace
  in
  if settings p = settings c then None
  else Some (Printf.sprintf "parent ran with %s, change with %s" (settings p) (settings c))

(* ------------------------------------------------------------------ *)
(* Parent-vs-change comparison                                          *)
(* ------------------------------------------------------------------ *)

type verdict = Improved | Within_bound | Worse | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Within_bound -> "within bound"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(** The rule for one (workload, metric), over runs paired in the order
    they were made (parent and change alternating):
    - improved: at least ten pairs, the change wins at least nine
      tenths of them (ties count for neither side), and the medians
      differ, in the better direction, by more than the parent's IQR;
    - worse: the change's median is worse than the parent's by more
      than the metric's bound;
    - unresolved: neither, while the parent's IQR is wider than the
      bound, unless every change run beats every parent run;
    - within bound otherwise.
    Metrics without a bound (per-layer) are never "worse".  When the
    change failed more operations than the parent ([fails_more]), no
    gain counts: the verdict is never "improved". *)
let classify ?(fails_more = false) ~(better : better) ~(bound : float option)
    ~(parent : float list) ~(change : float list) () : verdict =
  let gain a b = match better with Lower -> b -. a | Higher -> a -. b in
  (* [gain c p > 0]: c is better than p *)
  (* medians and quartiles as Python's statistics module gives them, so
     verdicts agree with the acceptance check's own arithmetic *)
  match (quartiles parent, quartiles change) with
  | Some (q1, mp, q3), Some (_, mc, _) ->
      let iqr = q3 -. q1 in
      let pairs = min (List.length parent) (List.length change) in
      let wins =
        List.fold_left2
          (fun acc p c -> if gain c p > 0.0 then acc + 1 else acc)
          0
          (take pairs parent) (take pairs change)
      in
      let all_better =
        List.for_all (fun c -> List.for_all (fun p -> gain c p > 0.0) parent)
          change
      in
      if (not fails_more) && pairs >= 10 && wins * 10 >= pairs * 9 && gain mc mp > iqr
      then Improved
      else (
        match bound with
        | Some b when gain mc mp < -.(b *. Float.abs mp) -> Worse
        | Some b when iqr > b *. Float.abs mp && not all_better -> Unresolved
        | _ -> Within_bound)
  | _ -> Unresolved
