(* The domain pool behind the parallel profiling search: order
   preservation, exception propagation, reuse, and equivalence with the
   serial path for any worker count. *)

module Pool = Hfuse_parallel.Pool

let squares n = Array.init n (fun i -> i * i)

let test_serial_pool () =
  (* jobs <= 1 degenerates to the calling domain: no workers spawned *)
  Pool.with_pool 1 (fun p ->
      Alcotest.(check int) "serial size" 1 (Pool.size p);
      Alcotest.(check (array int)) "serial map" (squares 10)
        (Pool.map p (fun i -> i * i) (Array.init 10 Fun.id)));
  Pool.with_pool 0 (fun p ->
      Alcotest.(check int) "clamped to 1" 1 (Pool.size p))

let test_parallel_map_order () =
  Pool.with_pool 4 (fun p ->
      Alcotest.(check int) "pool size" 4 (Pool.size p);
      (* unequal per-element work shuffles completion order; the result
         must still land in input order *)
      let f i =
        let acc = ref 0 in
        for _ = 1 to (i mod 13) * 500 do
          incr acc
        done;
        ignore !acc;
        i * i
      in
      Alcotest.(check (array int)) "input order" (squares 100)
        (Pool.map p f (Array.init 100 Fun.id)))

let test_edge_sizes () =
  Pool.with_pool 4 (fun p ->
      Alcotest.(check (array int)) "empty" [||]
        (Pool.map p (fun i -> i) [||]);
      Alcotest.(check (array int)) "singleton" [| 42 |]
        (Pool.map p (fun i -> i * 2) [| 21 |]))

let test_map_list () =
  Pool.with_pool 3 (fun p ->
      Alcotest.(check (list int)) "list order" [ 2; 4; 6; 8 ]
        (Pool.map_list p (fun i -> i * 2) [ 1; 2; 3; 4 ]))

let test_exception_propagates () =
  Pool.with_pool 4 (fun p ->
      (match Pool.map p (fun i -> if i = 5 then failwith "boom" else i)
               (Array.init 8 Fun.id)
       with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure m -> Alcotest.(check string) "message" "boom" m);
      (* the pool survives a raising batch *)
      Alcotest.(check (array int)) "usable after failure" (squares 4)
        (Pool.map p (fun i -> i * i) (Array.init 4 Fun.id)))

let test_pool_reuse () =
  Pool.with_pool 2 (fun p ->
      for round = 1 to 5 do
        let n = 10 * round in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (squares n)
          (Pool.map p (fun i -> i * i) (Array.init n Fun.id))
      done)

let test_default_jobs () =
  Alcotest.(check bool) "default jobs positive" true (Pool.default_jobs () >= 1)

(* -- isolation, retries, chaos ----------------------------------------- *)

module Fault = Hfuse_fault.Fault

let test_map_isolated_shapes () =
  Pool.with_pool 4 (fun p ->
      let results =
        Pool.map_isolated p
          (fun i -> if i mod 3 = 1 then failwith (string_of_int i) else i * i)
          (Array.init 9 Fun.id)
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v ->
              Alcotest.(check bool) "only passing indices succeed" true
                (i mod 3 <> 1);
              Alcotest.(check int) "value" (i * i) v
          | Error (fl : Pool.failure) ->
              Alcotest.(check bool) "only failing indices fail" true
                (i mod 3 = 1);
              Alcotest.(check int) "failure carries its index" i fl.f_index;
              Alcotest.(check int) "no retries by default" 1 fl.f_attempts;
              (match fl.f_exn with
              | Failure m ->
                  Alcotest.(check string) "original exception" (string_of_int i)
                    m
              | _ -> Alcotest.fail "expected Failure");
              (* the backtrace was captured where the task raised *)
              ignore (Printexc.raw_backtrace_to_string fl.f_backtrace))
        results)

let test_map_isolated_retries () =
  Pool.with_pool 2 (fun p ->
      (* each task fails on its first attempt and succeeds on retry;
         per-index atomics survive the task landing on any domain *)
      let n = 8 in
      let attempts = Array.init n (fun _ -> Atomic.make 0) in
      let results, ledger =
        Ledger.run (fun () ->
            Pool.map_isolated ~retries:1 p
              (fun i ->
                if Atomic.fetch_and_add attempts.(i) 1 = 0 then
                  failwith "flaky";
                i + 100)
              (Array.init n Fun.id))
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) "recovered value" (i + 100) v
          | Error _ -> Alcotest.failf "task %d not recovered" i)
        results;
      (* the tasks ran on worker domains, under the submitter's ledger *)
      let t = Pool.tally_of ledger in
      Alcotest.(check int) "retries counted" n t.Pool.retries;
      Alcotest.(check int) "recoveries counted" n t.Pool.recovered;
      (* past the budget the task fails terminally with the attempt count *)
      let r =
        Pool.map_isolated ~retries:2 p
          (fun _ -> failwith "always")
          [| 0 |]
      in
      match r.(0) with
      | Ok _ -> Alcotest.fail "expected terminal failure"
      | Error fl -> Alcotest.(check int) "budget exhausted" 3 fl.f_attempts)

let test_map_lowest_index_failure () =
  Pool.with_pool 4 (fun p ->
      match
        Pool.map p
          (fun i -> if i >= 5 then failwith (string_of_int i) else i)
          (Array.init 10 Fun.id)
      with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure m ->
          Alcotest.(check string) "lowest-index failure re-raised" "5" m)

let test_injected_crashes_recovered () =
  (* a certain worker-crash plan: every task is killed once and must
     still produce the fault-free answer, at any worker count *)
  let fault = Fault.plan_of_spec "worker_crash:1.0" in
  let xs = Array.init 24 Fun.id in
  let expect = Array.map (fun i -> (i * 7) + 1) xs in
  List.iter
    (fun jobs ->
      let got, ledger =
        Ledger.run (fun () ->
            Pool.with_pool jobs (fun p ->
                Pool.map ?fault p (fun i -> (i * 7) + 1) xs))
      in
      Alcotest.(check (array int))
        (Printf.sprintf "bit-identical under crashes at -j %d" jobs)
        expect got;
      Alcotest.(check int) "every task crashed once" (Array.length xs)
        (Fault.injected ledger Worker_crash);
      Alcotest.(check int) "every crash recovered" (Array.length xs)
        (Fault.recovered ledger Worker_crash);
      Alcotest.(check int) "no terminal failures" 0
        (Pool.tally_of ledger).Pool.failures)
    [ 1; 4 ]

(* -- service pools: submit, priorities, admission ----------------------- *)

(* A gate the single worker parks on, so the submit queue's contents
   are deterministic while we poke at it from the test thread. *)
module Gate = struct
  type t = { m : Mutex.t; c : Condition.t; mutable open_ : bool }

  let make () = { m = Mutex.create (); c = Condition.create (); open_ = false }

  let wait g =
    Mutex.lock g.m;
    while not g.open_ do
      Condition.wait g.c g.m
    done;
    Mutex.unlock g.m

  let release g =
    Mutex.lock g.m;
    g.open_ <- true;
    Condition.broadcast g.c;
    Mutex.unlock g.m
end

let spin_until ?(timeout = 10.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  Alcotest.(check bool) "condition reached before timeout" true (pred ())

let test_submit_priority_order () =
  let p = Pool.create ~queue_limit:16 1 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  let gate = Gate.make () in
  let order = ref [] in
  let order_m = Mutex.create () in
  let done_count = Atomic.make 0 in
  let job tag () =
    Mutex.lock order_m;
    order := tag :: !order;
    Mutex.unlock order_m;
    Atomic.incr done_count
  in
  (* park the worker, then queue behind it in submission order
     0, 5a, 1, 5b, 9: drain order must be priority-major, FIFO within *)
  Alcotest.(check bool) "blocker admitted" true
    (Pool.submit p (fun () -> Gate.wait gate) = `Queued);
  spin_until (fun () -> Pool.pending_submits p = 0);
  List.iter
    (fun (prio, tag) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s admitted" tag)
        true
        (Pool.submit ~priority:prio p (job tag) = `Queued))
    [ (0, "p0"); (5, "p5a"); (1, "p1"); (5, "p5b"); (9, "p9") ];
  Alcotest.(check int) "all five waiting" 5 (Pool.pending_submits p);
  Gate.release gate;
  spin_until (fun () -> Atomic.get done_count = 5);
  Alcotest.(check (list string)) "priority-major, FIFO within"
    [ "p9"; "p5a"; "p5b"; "p1"; "p0" ]
    (List.rev !order)

let test_submit_admission () =
  let p = Pool.create ~queue_limit:2 1 in
  let gate = Gate.make () in
  Fun.protect ~finally:(fun () ->
      Gate.release gate;
      Pool.shutdown p)
  @@ fun () ->
  let ran = Atomic.make 0 in
  Alcotest.(check bool) "blocker admitted" true
    (Pool.submit p (fun () -> Gate.wait gate) = `Queued);
  (* the blocker may still be queued or already running; wait until the
     worker picked it up so exactly queue_limit slots remain *)
  spin_until (fun () -> Pool.pending_submits p = 0);
  Alcotest.(check bool) "slot 1 queued" true
    (Pool.submit p (fun () -> Atomic.incr ran) = `Queued);
  Alcotest.(check bool) "slot 2 queued" true
    (Pool.submit p (fun () -> Atomic.incr ran) = `Queued);
  Alcotest.(check bool) "past the limit: refused, not queued" true
    (Pool.submit p (fun () -> Atomic.incr ran) = `Overloaded);
  Alcotest.(check int) "refused job never counted" 2 (Pool.pending_submits p);
  Gate.release gate;
  spin_until (fun () -> Atomic.get ran = 2);
  (* a drained queue admits again *)
  Alcotest.(check bool) "admits after drain" true
    (Pool.submit p (fun () -> Atomic.incr ran) = `Queued);
  spin_until (fun () -> Atomic.get ran = 3)

let test_submit_shutdown_and_plain_pool () =
  (* submit on a worker-less serial pool is a programming error: there
     is no domain to ever drain the job *)
  Pool.with_pool 1 (fun p ->
      try
        ignore (Pool.submit p (fun () -> ()));
        Alcotest.fail "submit accepted on a worker-less pool"
      with Invalid_argument _ -> ());
  let p = Pool.create ~queue_limit:4 1 in
  Pool.shutdown p;
  Alcotest.(check bool) "submit after shutdown" true
    (Pool.submit p (fun () -> ()) = `Shutdown)

let test_pool_diff_clamps () =
  let before = { Pool.failures = 4; retries = 10; recovered = 3 } in
  let after = { Pool.failures = 2; retries = 16; recovered = 3 } in
  let d = Pool.diff ~before ~after in
  (* an inconsistent pair of reads clamps at 0, never negative *)
  Alcotest.(check int) "failures clamped" 0 d.Pool.failures;
  Alcotest.(check int) "retries delta" 6 d.Pool.retries;
  Alcotest.(check int) "recovered delta" 0 d.Pool.recovered;
  let s = Fmt.str "%a" Pool.pp_tally d in
  Alcotest.(check string) "pp_tally" "0 failures, 6 retries, 0 recovered" s

(* Pool.map must equal Array.map for any jobs and any input *)
let prop_matches_serial =
  QCheck.Test.make ~name:"Pool.map equals Array.map for any worker count"
    ~count:25
    QCheck.(pair (int_range 1 8) (list small_int))
    (fun (jobs, xs) ->
      let xs = Array.of_list xs in
      let f x = (x * 3) + 1 in
      Pool.with_pool jobs (fun p -> Pool.map p f xs) = Array.map f xs)

let suite =
  [
    Alcotest.test_case "serial pool" `Quick test_serial_pool;
    Alcotest.test_case "parallel map preserves order" `Quick
      test_parallel_map_order;
    Alcotest.test_case "empty and singleton" `Quick test_edge_sizes;
    Alcotest.test_case "map over lists" `Quick test_map_list;
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
    Alcotest.test_case "default jobs" `Quick test_default_jobs;
    Alcotest.test_case "map_isolated shapes" `Quick test_map_isolated_shapes;
    Alcotest.test_case "map_isolated retry budget" `Quick
      test_map_isolated_retries;
    Alcotest.test_case "map re-raises the lowest-index failure" `Quick
      test_map_lowest_index_failure;
    Alcotest.test_case "injected crashes recover transparently" `Quick
      test_injected_crashes_recovered;
    Alcotest.test_case "submit drains priority-major" `Quick
      test_submit_priority_order;
    Alcotest.test_case "submit admission control" `Quick test_submit_admission;
    Alcotest.test_case "submit on shut-down or map-only pools" `Quick
      test_submit_shutdown_and_plain_pool;
    Alcotest.test_case "pool tally diff clamps at zero" `Quick
      test_pool_diff_clamps;
  ]
  @ Test_util.qcheck_cases [ prop_matches_serial ]
