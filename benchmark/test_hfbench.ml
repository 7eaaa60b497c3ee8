(* Unit tests of the harness's pure parts and of its committed inputs:
   percentiles, seeded plans, the comparison rule, the paper references
   against BENCH_fig9.json, and BENCHMARK.json against the catalogue. *)

module L = Hfbench_lib
module Json = Hfuse_profiler.Report.Json

let read path = In_channel.with_open_bin path In_channel.input_all

let json path =
  match Json.of_string (read path) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" path e

let list k j =
  match Json.member k j with Some (Json.List l) -> l | _ -> Alcotest.failf "no %s" k

let str k j =
  match Json.member k j with Some (Json.Str s) -> s | _ -> Alcotest.failf "no %s" k

let num k j =
  match Option.bind (Json.member k j) Json.to_float_opt with
  | Some x -> x
  | None -> Alcotest.failf "no %s" k

let ints = List.map float_of_int

let test_percentiles () =
  let xs = ints (List.init 100 (fun i -> i + 1)) in
  let p k = L.percentile ~p:k xs in
  Alcotest.(check (option (float 0.))) "p50" (Some 50.) (p 50);
  Alcotest.(check (option (float 0.))) "p90" (Some 90.) (p 90);
  Alcotest.(check (option (float 0.))) "p99" (Some 99.) (p 99);
  Alcotest.(check (option (float 0.))) "p50 of 4" (Some 2.)
    (L.percentile ~p:50 (ints [ 4; 1; 3; 2 ]));
  Alcotest.(check (option (float 0.))) "empty" None (L.percentile ~p:50 []);
  (* ten samples beyond: p90 needs n >= 100, p99 n >= 1000 *)
  Alcotest.(check bool) "p90 of 99" false (L.reportable ~p:90 99);
  Alcotest.(check bool) "p90 of 100" true (L.reportable ~p:90 100);
  Alcotest.(check bool) "median of 1" true (L.reportable ~p:50 1);
  Alcotest.(check (option int)) "tail of 111" (Some 90) (L.tail_p 111);
  Alcotest.(check (option int)) "tail of 200" (Some 95) (L.tail_p 200);
  Alcotest.(check (option int)) "tail of 40" None (L.tail_p 40)

(* statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
   statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0] *)
let test_quartiles () =
  let q = Alcotest.(option (triple (float 1e-12) (float 1e-12) (float 1e-12))) in
  Alcotest.check q "1..10" (Some (2.75, 5.5, 8.25))
    (L.quartiles (ints (List.init 10 (fun i -> i + 1))));
  Alcotest.check q "3 samples" (Some (1., 2., 3.)) (L.quartiles (ints [ 3; 1; 2 ]));
  Alcotest.check q "one sample" None (L.quartiles [ 1. ])

let test_plans () =
  List.iter
    (fun w ->
      let plan seed pass = L.pass_plan w ~smoke:false ~seed ~pass in
      let name = L.workload_name w in
      Alcotest.(check bool) (name ^ " deterministic") true (plan 7 0 = plan 7 0);
      (* three paper pairs have 6 orders, so two seeds may share one *)
      Alcotest.(check bool) (name ^ " seed changes order") true
        (List.exists (fun s -> plan s 0 <> plan 0 0) (List.init 9 succ));
      (* every seed does the same work *)
      Alcotest.(check bool) (name ^ " same multiset") true
        (List.sort compare (plan 7 0) = List.sort compare (plan 8 1)))
    L.workloads;
  let daemon smoke = L.pass_plan L.Daemon_mixed ~smoke ~seed:0 ~pass:0 in
  let count smoke pred = List.length (List.filter pred (daemon smoke)) in
  let hot (x : L.op) = x.verb = L.Search && List.mem (L.op_pair x) L.daemon_hot_pairs in
  let verb v (x : L.op) = x.verb = v in
  Alcotest.(check (list int)) "daemon mix: hot, never-seen, check, fuse"
    [ 80; 24; 28; 28 ]
    [
      count false hot;
      count false (fun x -> verb L.Search x && not (hot x));
      count false (verb L.Check);
      count false (verb L.Fuse);
    ];
  Alcotest.(check (list int)) "smoke daemon mix" [ 12; 4; 4; 4 ]
    [
      count true hot;
      count true (fun x -> verb L.Search x && not (hot x));
      count true (verb L.Check);
      count true (verb L.Fuse);
    ];
  Alcotest.(check bool) "hot and never-seen sets disjoint" true
    (List.for_all (fun p -> not (List.mem p L.daemon_hot_pairs)) L.daemon_cold_pairs);
  Alcotest.(check int) "never-seen pairs distinct" 24
    (List.length (List.sort_uniq compare L.daemon_cold_pairs))

(* The fleet sets are the strided samples of the canonical fleet order
   that their comment names. *)
let test_fleet_sets () =
  let index = Hashtbl.create 1200 in
  List.iter
    (fun r -> Hashtbl.replace index (str "pair" r) (int_of_float (num "i" r)))
    (list "rows" (json "reference/fleet_rows.json"));
  let strided ~stride ~offset n = List.init n (fun j -> offset + (stride * j)) in
  let indices = List.map (fun p -> Hashtbl.find index (L.pair_name p)) in
  (* every 72nd from 43 but the two crypto x generated pairs, plus a
     rejected one *)
  let crypto_gen = indices [ ("Ethash", "gen051"); ("Blake256", "gen034") ] in
  Alcotest.(check (list int)) "fleet-cold"
    (List.filter
       (fun i -> not (List.mem i crypto_gen))
       (strided ~stride:72 ~offset:43 16)
    @ [ Hashtbl.find index "Hist+SHA256" ])
    (indices L.fleet_pairs);
  (* every 144th from 108, with Ethash+gen039 (252) swapped for 36 *)
  Alcotest.(check (list int)) "daemon hot set"
    (36 :: List.filter (( <> ) 252) (strided ~stride:144 ~offset:108 8))
    (indices L.daemon_hot_pairs);
  Alcotest.(check string) "the swapped pair" "Ethash+gen039"
    (List.find (fun r -> int_of_float (num "i" r) = 252) (list "rows" (json "reference/fleet_rows.json"))
    |> str "pair");
  Alcotest.(check (list int)) "daemon never-seen set" (strided ~stride:46 ~offset:35 24)
    (indices L.daemon_cold_pairs)

let test_classify () =
  let c ?fails_more ?(better = L.Lower) ?(bound = Some 0.1) parent change =
    L.verdict_name (L.classify ?fails_more ~better ~bound ~parent ~change ())
  in
  let base = List.init 10 (fun i -> 100. +. float_of_int (i mod 3)) in
  Alcotest.(check string) "improved" "improved"
    (c base (List.map (fun x -> x -. 20.) base));
  Alcotest.(check string) "worse" "worse" (c base (List.map (fun x -> x +. 20.) base));
  Alcotest.(check string) "within" "within bound"
    (c base (List.map (fun x -> x +. 1.) base));
  Alcotest.(check string) "too few pairs" "within bound"
    (c (List.filteri (fun i _ -> i < 5) base)
       (List.filteri (fun i _ -> i < 5) (List.map (fun x -> x -. 20.) base)));
  Alcotest.(check string) "higher is better" "improved"
    (c ~better:L.Higher base (List.map (fun x -> x +. 20.) base));
  let noisy = [ 50.; 150.; 60.; 140.; 70.; 130.; 80.; 120.; 90.; 110. ] in
  Alcotest.(check string) "spread wider than bound" "unresolved"
    (c noisy (List.map (fun x -> x +. 5.) noisy));
  Alcotest.(check string) "no gain with more failures" "within bound"
    (c ~fails_more:true base (List.map (fun x -> x -. 20.) base));
  let record seed =
    {
      L.r_workload = "paper-warm";
      r_seed = seed;
      r_seconds = 10.;
      r_smoke = false;
      r_trace = false;
      r_correct = true;
      r_attempted = 5;
      r_failed = 0;
      r_metrics = [];
    }
  in
  Alcotest.(check bool) "same settings pair" true (L.pairing_error (record 3) (record 3) = None);
  Alcotest.(check bool) "different seeds do not pair" true
    (L.pairing_error (record 3) (record 4) <> None)

(* The calibration loop does the same work on every call and allocates
   nothing, so neither the program's heap nor its GC settings can move
   it; each piece of work is scaled by the samples around it. *)
let test_calibration () =
  let first = L.calibration_work () in
  let words = Gc.minor_words () in
  let again = L.calibration_work () in
  let allocated = Gc.minor_words () -. words in
  Alcotest.(check int) "same work" first again;
  Alcotest.(check bool) "allocates nothing" true (allocated < 16.);
  let r = L.cal_reference_ms in
  let f =
    L.calibrate
      [ L.Work "a"; L.Cal (2. *. r); L.Work "b"; L.Work "c"; L.Cal (4. *. r); L.Work "d" ]
  in
  Alcotest.(check (list (pair string (float 1e-12))))
    "factors from the nearest samples"
    [ ("a", 0.5); ("b", 1. /. 3.); ("c", 1. /. 3.); ("d", 0.25) ]
    f;
  Alcotest.(check (list (pair string (float 0.)))) "no samples" [ ("a", 1.) ]
    (L.calibrate [ L.Work "a" ])

(* The committed paper references decode to BENCH_fig9.json's 1080Ti
   rows: same searched partition, register bound and fused time, and the
   native time the row's speedup implies. *)
let test_paper_refs () =
  let refs = list "pairs" (json "reference/paper_1080Ti.json") in
  let rows =
    List.filter (fun r -> str "arch" r = "1080Ti") (list "rows" (json "../BENCH_fig9.json"))
  in
  Alcotest.(check int) "16 pairs" 16 (List.length refs);
  Alcotest.(check int) "16 rows" 16 (List.length rows);
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.abs b in
  List.iter
    (fun r ->
      let pair = str "pair" r in
      let row =
        match List.find_opt (fun x -> str "pair" x = pair) rows with
        | Some x -> x
        | None -> Alcotest.failf "%s not in BENCH_fig9.json" pair
      in
      let nr = Option.get (Json.member "no_regcap" row) in
      Alcotest.(check int) (pair ^ " d1") (int_of_float (num "d1" nr)) (int_of_float (num "best_d1" r));
      Alcotest.(check int) (pair ^ " d2") (int_of_float (num "d2" nr)) (int_of_float (num "best_d2" r));
      let variant =
        match Json.member "best_r0" r with
        | Some (Json.Int r0) ->
            let rc = Option.get (Json.member "regcap" row) in
            Alcotest.(check int) (pair ^ " r0") r0 (int_of_float (num "reg_bound" rc));
            rc
        | _ -> nr
      in
      let fused = num "time_ms" (Option.get (Json.member "metrics" variant)) in
      Alcotest.(check bool) (pair ^ " best time") true (close (num "best_ms" r) fused);
      let native = fused *. (1. +. (num "speedup_pct" variant /. 100.)) in
      Alcotest.(check bool) (pair ^ " native time") true
        (Float.abs (num "native_ms" r -. native) <= 1e-9 *. native);
      Alcotest.(check int) (pair ^ " md5") 32 (String.length (str "md5" r)))
    refs;
  let fleet = list "rows" (json "reference/fleet_rows.json") in
  Alcotest.(check int) "1128 fleet rows" 1128 (List.length fleet)

(* BENCHMARK.json names exactly the harness's metrics, with the units,
   directions and bounds of its catalogue. *)
let test_benchmark_json () =
  let b = json "../BENCHMARK.json" in
  let check_list key (cat : L.metric list) =
    let ms = list key b in
    Alcotest.(check (list string)) (key ^ " names")
      (List.map (fun (m : L.metric) -> m.m_name) cat)
      (List.map (str "name") ms);
    List.iter2
      (fun (m : L.metric) j ->
        Alcotest.(check bool) (m.m_name ^ " is a valid name") true (L.valid_name m.m_name);
        Alcotest.(check string) (m.m_name ^ " unit") m.m_unit (str "unit" j);
        Alcotest.(check string) (m.m_name ^ " better")
          (match m.m_better with L.Lower -> "lower" | L.Higher -> "higher")
          (str "better" j);
        match m.m_bound with
        | Some bound -> Alcotest.(check (float 0.)) (m.m_name ^ " bound") bound (num "bound" j)
        | None -> ())
      cat ms
  in
  check_list "end_to_end" L.end_to_end;
  check_list "per_layer" L.per_layer;
  Alcotest.(check (list (pair string string))) "workloads"
    (List.map (fun w -> (L.workload_name w, L.workload_why w)) L.workloads)
    (List.map (fun j -> (str "name" j, str "why" j)) (list "workloads" b))

let () =
  Alcotest.run "hfbench"
    [
      ( "hfbench",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles;
          Alcotest.test_case "python quartiles" `Quick test_quartiles;
          Alcotest.test_case "calibration" `Quick test_calibration;
          Alcotest.test_case "seeded plans" `Quick test_plans;
          Alcotest.test_case "fleet pair sets" `Quick test_fleet_sets;
          Alcotest.test_case "comparison rule" `Quick test_classify;
          Alcotest.test_case "paper references match fig9" `Quick test_paper_refs;
          Alcotest.test_case "BENCHMARK.json matches the catalogue" `Quick
            test_benchmark_json;
        ] );
    ]
