(* The chaos-injection harness: spec parsing, pure deterministic draws,
   backoff jitter, retry/recovery semantics, and the fault counters.
   Plans are passed to every draw, so a draw without one never fires;
   a test that reads counters runs under a ledger of its own. *)

module Fault = Hfuse_fault.Fault

let with_plan spec f =
  let plan =
    match Fault.plan_of_spec spec with
    | Some p -> p
    | None -> Alcotest.failf "spec %S parsed to no plan" spec
    | exception Fault.Invalid_spec e ->
        Alcotest.failf "spec %S rejected: %s" spec e
  in
  f plan

let test_configure_ok () =
  with_plan "worker_crash:0.05,cache_corrupt:0.1,sim_hang:0.02,seed:7"
    (fun plan ->
      Alcotest.(check bool) "enabled" true (Fault.enabled ~plan ());
      Alcotest.(check (float 0.0)) "crash rate" 0.05
        (Fault.rate ~plan Worker_crash);
      Alcotest.(check (float 0.0)) "corrupt rate" 0.1
        (Fault.rate ~plan Cache_corrupt);
      Alcotest.(check (float 0.0)) "hang rate" 0.02 (Fault.rate ~plan Sim_hang));
  Alcotest.(check bool) "cleared" false (Fault.enabled ());
  Alcotest.(check (float 0.0)) "rates drop to 0" 0.0 (Fault.rate Worker_crash)

let test_configure_errors () =
  let rejects spec =
    match Fault.plan_of_spec spec with
    | _ -> Alcotest.failf "malformed spec %S accepted" spec
    | exception Fault.Invalid_spec _ -> ()
  in
  rejects "worker_crash";
  rejects "worker_crash:nope";
  rejects "worker_crash:1.5";
  rejects "worker_crash:-0.1";
  rejects "disk_full:0.5";
  (* an empty spec is the documented way to ask for no plan *)
  (match Fault.plan_of_spec "worker_crash:1.0" with
  | Some _ -> ()
  | None -> Alcotest.fail "valid spec parsed to no plan");
  Alcotest.(check bool) "empty spec clears" true
    (Fault.plan_of_spec "" = None)

let test_fires_deterministic () =
  with_plan "worker_crash:0.5,seed:3" (fun plan ->
      let draws =
        Array.init 512 (fun k -> Fault.fires ~plan Worker_crash ~key:k)
      in
      Array.iteri
        (fun k d ->
          Alcotest.(check bool)
            (Printf.sprintf "key %d draws the same answer twice" k)
            d
            (Fault.fires ~plan Worker_crash ~key:k))
        draws;
      let hits =
        Array.fold_left (fun n d -> if d then n + 1 else n) 0 draws
      in
      (* a 0.5 draw over 512 keys lands well inside [128, 384] *)
      Alcotest.(check bool)
        (Printf.sprintf "rate 0.5 fires about half the time (%d/512)" hits)
        true
        (hits > 128 && hits < 384))

let test_fires_extremes () =
  with_plan "cache_corrupt:1.0,sim_hang:0.0" (fun plan ->
      for k = 0 to 255 do
        Alcotest.(check bool) "rate 1 always fires" true
          (Fault.fires ~plan Cache_corrupt ~key:k);
        Alcotest.(check bool) "rate 0 never fires" false
          (Fault.fires ~plan Sim_hang ~key:k);
        (* unconfigured kinds never fire either *)
        Alcotest.(check bool) "unconfigured kind never fires" false
          (Fault.fires ~plan Worker_crash ~key:k)
      done);
  Alcotest.(check bool) "disabled plan never fires" false
    (Fault.fires Cache_corrupt ~key:0)

let test_jitter () =
  for attempt = 0 to 8 do
    for key = 0 to 63 do
      let j = Fault.jitter ~key ~attempt () in
      Alcotest.(check bool) "jitter positive" true (j > 0.0);
      Alcotest.(check bool) "jitter bounded" true (j < 1.0);
      Alcotest.(check (float 0.0)) "jitter deterministic" j
        (Fault.jitter ~key ~attempt ())
    done
  done

let test_with_retries_injected () =
  with_plan "worker_crash:1.0" (fun _ ->
      (* an injected fault is transient: the wrapper retries until the
         task runs clean, even with no real-failure budget *)
      let calls = ref 0 in
      let v, ledger =
        Ledger.run (fun () ->
            Fault.with_retries ~key:11 (fun () ->
                incr calls;
                if !calls = 1 then raise (Fault.Injected Worker_crash);
                41 + 1))
      in
      Alcotest.(check int) "recovered value" 42 v;
      Alcotest.(check int) "retried once" 2 !calls;
      Alcotest.(check int) "recovery noted" 1
        (Fault.recovered ledger Worker_crash))

let test_with_retries_budget () =
  (* no plan: only the explicit budget applies *)
  let calls = ref 0 in
  let v =
    Fault.with_retries ~budget:2 ~key:5 (fun () ->
        incr calls;
        if !calls < 3 then failwith "flaky";
        "ok")
  in
  Alcotest.(check string) "recovers within budget" "ok" v;
  Alcotest.(check int) "two retries used" 3 !calls;
  let calls = ref 0 in
  (match
     Fault.with_retries ~budget:1 ~key:5 (fun () ->
         incr calls;
         failwith "always")
   with
  | _ -> Alcotest.fail "exhausted retries must re-raise"
  | exception Failure msg ->
      Alcotest.(check string) "original exception" "always" msg);
  Alcotest.(check int) "budget 1 means two attempts" 2 !calls;
  (* default budget is zero: a real failure propagates immediately *)
  let calls = ref 0 in
  (match
     Fault.with_retries ~key:5 (fun () ->
         incr calls;
         failwith "once")
   with
  | _ -> Alcotest.fail "default budget must not retry"
  | exception Failure _ -> ());
  Alcotest.(check int) "single attempt" 1 !calls

let test_tally () =
  let (), ledger =
    Ledger.run (fun () ->
        Fault.note_injected Worker_crash;
        Fault.note_injected Worker_crash;
        Fault.note_injected Sim_hang;
        Fault.note_recovered Worker_crash)
  in
  Alcotest.(check int) "crash count" 2 (Fault.injected ledger Worker_crash);
  Alcotest.(check int) "hang count" 1 (Fault.injected ledger Sim_hang);
  Alcotest.(check int) "recovered" 1 (Fault.recovered ledger Worker_crash);
  Alcotest.(check string) "pp_tally"
    "injected 3 (crash 2, corrupt 0, hang 1), recovered 1"
    (Fmt.str "%a" Fault.pp_tally ledger);
  let (), empty = Ledger.run ignore in
  Alcotest.(check string) "a fresh ledger is empty"
    "injected 0 (crash 0, corrupt 0, hang 0), recovered 0"
    (Fmt.str "%a" Fault.pp_tally empty)

let test_from_env_raises () =
  (* regression: a malformed HFUSE_FAULT used to exit the process with
     code 2 from library code — fatal inside a daemon.  Resolving
     settings now raises Invalid_spec instead. *)
  let resolve () = (Hfuse_profiler.Settings.resolve ()).fault in
  Unix.putenv "HFUSE_FAULT" "bogus_kind:0.5";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "HFUSE_FAULT" "")
    (fun () ->
      (match resolve () with
      | _ -> Alcotest.fail "malformed HFUSE_FAULT accepted"
      | exception Fault.Invalid_spec msg ->
          Alcotest.(check bool) "message names the bad kind" true
            (String.length msg > 0));
      Unix.putenv "HFUSE_FAULT" "sim_hang:0.5,seed:4";
      Alcotest.(check (float 0.0)) "valid env installs" 0.5
        (Fault.rate ?plan:(resolve ()) Sim_hang))

let test_spec_round_trip () =
  let spec = "worker_crash:0.05,cache_corrupt:0.1,sim_hang:0.02,seed:7" in
  match Fault.plan_of_spec spec with
  | None -> Alcotest.fail "documented spec parsed to no plan"
  | Some plan -> (
      match Fault.plan_of_spec (Fault.to_spec plan) with
      | None -> Alcotest.fail "rendered spec parsed to no plan"
      | Some plan' ->
          List.iter
            (fun k ->
              Alcotest.(check (float 0.0))
                (Fault.kind_name k ^ " rate survives")
                (Fault.rate ~plan k)
                (Fault.rate ~plan:plan' k))
            Fault.all_kinds;
          (* same seed: the draw streams are identical *)
          for key = 0 to 255 do
            List.iter
              (fun k ->
                Alcotest.(check bool) "draw stream survives"
                  (Fault.fires ~plan k ~key)
                  (Fault.fires ~plan:plan' k ~key))
              Fault.all_kinds
          done)

let test_explicit_plans_are_independent () =
  (* two requests with different plans must not clobber each other, nor
     a third plan in use alongside — the daemon threads ?plan explicitly *)
  let plan_of spec =
    match Fault.plan_of_spec spec with
    | Some p -> p
    | None -> Alcotest.failf "spec %S parsed to no plan" spec
  in
  let a = plan_of "worker_crash:1.0,seed:1" in
  let b = plan_of "sim_hang:1.0,seed:2" in
  with_plan "cache_corrupt:1.0,seed:3" (fun installed ->
      let results = Array.make 2 true in
      let drain i plan kind other =
        for key = 0 to 999 do
          if not (Fault.fires ~plan kind ~key) || Fault.fires ~plan other ~key
          then results.(i) <- false
        done
      in
      let t1 = Thread.create (fun () -> drain 0 a Worker_crash Sim_hang) () in
      let t2 = Thread.create (fun () -> drain 1 b Sim_hang Worker_crash) () in
      Thread.join t1;
      Thread.join t2;
      Alcotest.(check bool) "plan a saw only its own rates" true results.(0);
      Alcotest.(check bool) "plan b saw only its own rates" true results.(1);
      (* the third plan is untouched by the other plans' draws *)
      Alcotest.(check (float 0.0)) "installed rate intact" 1.0
        (Fault.rate ~plan:installed Cache_corrupt);
      Alcotest.(check (float 0.0)) "installed crash rate intact" 0.0
        (Fault.rate ~plan:installed Worker_crash))

let suite =
  [
    Alcotest.test_case "spec parsing accepts the documented form" `Quick
      test_configure_ok;
    Alcotest.test_case "spec parsing rejects malformed plans" `Quick
      test_configure_errors;
    Alcotest.test_case "draws are pure in the key" `Quick
      test_fires_deterministic;
    Alcotest.test_case "rate 0 and rate 1 are exact" `Quick test_fires_extremes;
    Alcotest.test_case "backoff jitter is bounded and deterministic" `Quick
      test_jitter;
    Alcotest.test_case "injected faults are retried to success" `Quick
      test_with_retries_injected;
    Alcotest.test_case "real failures respect the retry budget" `Quick
      test_with_retries_budget;
    Alcotest.test_case "fault tally" `Quick test_tally;
    Alcotest.test_case "malformed HFUSE_FAULT raises, never exits" `Quick
      test_from_env_raises;
    Alcotest.test_case "to_spec/plan_of_spec round trip" `Quick
      test_spec_round_trip;
    Alcotest.test_case "explicit plans never clobber each other" `Quick
      test_explicit_plans_are_independent;
  ]
