(* The serve daemon: wire-protocol round trips, pre-shaped error
   responses, per-request settings resolution, fault containment,
   admission control, and the acceptance bar — concurrent daemon
   searches byte-identical to the one-shot engine. *)

module Ops = Hfuse_serve.Ops
module Protocol = Hfuse_serve.Protocol
module Server = Hfuse_serve.Server
module Client = Hfuse_serve.Client
module Settings = Hfuse_profiler.Settings
module Registry = Kernel_corpus.Registry
module Fault = Hfuse_fault.Fault
module J = Hfuse_profiler.Report.Json
module Runner = Hfuse_profiler.Runner
module Profile_cache = Hfuse_profiler.Profile_cache
module Trace_store = Hfuse_profiler.Trace_store

(* Unix-domain socket paths are length-limited (~108 bytes), so the
   harness binds under the system temp dir, never the build sandbox. *)
let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir = Test_util.tmp_path (Printf.sprintf "hsrv-%d" !n) in
    (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Filename.concat dir "d.sock"

let search_params : Ops.search_params =
  {
    s_arch = Gpusim.Arch.gtx1080ti;
    s_k1 = Registry.find_exn "Maxpool";
    s_k2 = Registry.find_exn "Upsample";
    s_size1 = Some 32;
    s_size2 = Some 32;
    s_emit = true;
    s_jobs = 1;
    s_top_k = None;
    s_repair = false;
  }

let search_request ?(priority = 0) ?(settings = Protocol.no_overrides) id :
    Protocol.request =
  { id; priority; settings; verb = Protocol.Work (Ops.Search search_params) }

(* Force the persistent cache off for every daemon request so the
   identity comparison never depends on leftover state in the build
   directory; the in-memory warm memos are exactly what is under test. *)
let no_disk_cache = { Protocol.no_overrides with sp_cache_dir = Some None }

(* ------------------------------------------------------------------ *)
(* Wire format                                                         *)

let fuse_request : Protocol.request =
  let src name body : Ops.kernel_src =
    { ks_path = name; ks_source = body; ks_block = 128; ks_smem = 16; ks_regs = Some 40 }
  in
  {
    id = "rt-fuse";
    priority = 3;
    settings =
      {
        sp_trace_blocks = Some 2;
        sp_sim_fuel = Some 100000;
        sp_trace_mem_mb = Some 64;
        sp_cache_dir = Some (Some "/tmp/cache");
        sp_fault = Some (Some "sim_hang:0.25,seed:9");
      };
    verb =
      Protocol.Work
        (Ops.Fuse
           {
             f_k1 = src "a.cu" "__global__ void a(int *p) {\n  p[0] = 1;\n}\n";
             f_k2 = src "b.cu" "__global__ void b(int *p) {\n  p[1] = 2;\n}\n";
             f_grid = 8;
           });
  }

let test_request_round_trip () =
  let check_fixed_point (req : Protocol.request) =
    let line = Protocol.request_to_line req in
    Alcotest.(check bool)
      "single line" false
      (String.contains line '\n');
    match Protocol.parse_request line with
    | Error _ -> Alcotest.failf "reparse rejected %s" line
    | Ok req' ->
        Alcotest.(check string) "id survives" req.id req'.id;
        Alcotest.(check int) "priority survives" req.priority req'.priority;
        (* the serializer is a fixed point of parse . serialize *)
        Alcotest.(check string)
          "canonical form" line
          (Protocol.request_to_line req')
  in
  check_fixed_point fuse_request;
  check_fixed_point (search_request ~priority:7 ~settings:no_disk_cache "rt-s");
  check_fixed_point { id = "rt-ping"; priority = 0;
                      settings = Protocol.no_overrides; verb = Protocol.Ping };
  check_fixed_point { id = "rt-stats"; priority = 1;
                      settings = Protocol.no_overrides; verb = Protocol.Stats }

let test_response_round_trip () =
  let resp =
    Protocol.Result
      {
        id = "r1";
        exit_code = 1;
        output = "line one\nline \"two\"\n\ttab\n";
        log = "hfuse: some diagnostic\n";
        telemetry = J.Obj [ ("n", J.Int 3); ("t", J.Float 0.5) ];
      }
  in
  let line = Protocol.response_to_line resp in
  Alcotest.(check bool) "single line" false (String.contains line '\n');
  (match Protocol.parse_response line with
  | Error e -> Alcotest.failf "reparse rejected: %s" e
  | Ok (Protocol.Result r) ->
      Alcotest.(check string) "id" "r1" r.id;
      Alcotest.(check int) "exit code" 1 r.exit_code;
      Alcotest.(check string) "output bytes" "line one\nline \"two\"\n\ttab\n"
        r.output;
      Alcotest.(check string) "log bytes" "hfuse: some diagnostic\n" r.log
  | Ok (Protocol.Failure _) -> Alcotest.fail "Result became Failure");
  let fail_line =
    Protocol.response_to_line
      (Protocol.failure ~id:"r2" Protocol.Overloaded "queue full")
  in
  match Protocol.parse_response fail_line with
  | Ok (Protocol.Failure f) ->
      Alcotest.(check (option string)) "id echoed" (Some "r2") f.id;
      Alcotest.(check string) "code" "overloaded" f.code;
      Alcotest.(check string) "message" "queue full" f.message
  | Ok (Protocol.Result _) -> Alcotest.fail "Failure became Result"
  | Error e -> Alcotest.failf "reparse rejected: %s" e

let expect_failure line code =
  match Protocol.parse_request line with
  | Ok _ -> Alcotest.failf "accepted %s" line
  | Error (Protocol.Result _) -> Alcotest.fail "error shaped as Result"
  | Error (Protocol.Failure f) ->
      Alcotest.(check string) (Printf.sprintf "code for %s" line) code f.code;
      f.id

let test_parse_errors_pre_shaped () =
  let id = expect_failure "this is not json" "parse_error" in
  Alcotest.(check (option string)) "no id readable" None id;
  let id = expect_failure {|{"id":"z","verb":"frobnicate","params":{}}|}
      "unknown_verb" in
  Alcotest.(check (option string)) "id echoed" (Some "z") id;
  ignore (expect_failure {|{"id":"z","verb":"search","params":{}}|}
            "invalid_request");
  ignore (expect_failure
            {|{"id":"z","verb":"search","params":{"k1":"Maxpool","k2":"NoSuchKernel"}}|}
            "invalid_request");
  ignore (expect_failure {|{"verb":"ping"}|} "invalid_request");
  ignore (expect_failure {|[1,2,3]|} "invalid_request")

(* ------------------------------------------------------------------ *)
(* Per-request settings                                                *)

let test_resolve_settings () =
  let spec =
    {
      Protocol.no_overrides with
      sp_trace_blocks = Some 3;
      sp_fault = Some (Some "sim_hang:0.25,seed:9");
    }
  in
  let base = Test_util.env_settings () in
  let s = Protocol.resolve_settings ~base spec in
  Alcotest.(check int) "trace blocks override" 3 s.Settings.trace_blocks;
  (match s.Settings.fault with
  | None -> Alcotest.fail "fault plan dropped"
  | Some plan ->
      Alcotest.(check (float 0.0)) "plan rate" 0.25
        (Fault.rate ~plan Fault.Sim_hang));
  (* an explicit null forces the fault plan off even when the daemon's
     base settings carry one — the daemon-safety rule that broke under
     the old ambient-global scheme *)
  let base =
    { base with fault = Fault.plan_of_spec "worker_crash:0.5,seed:3" }
  in
  let s =
    Protocol.resolve_settings ~base
      { Protocol.no_overrides with sp_fault = Some None }
  in
  Alcotest.(check bool) "null disables inherited plan" true
    (s.Settings.fault = None);
  let s = Protocol.resolve_settings ~base Protocol.no_overrides in
  Alcotest.(check bool) "absent inherits the daemon's base plan" true
    (s.Settings.fault <> None);
  (* malformed specs raise instead of exiting the process *)
  (try
     ignore (Protocol.resolve_settings ~base
               { Protocol.no_overrides with
                 sp_fault = Some (Some "bogus_kind:0.5") });
     Alcotest.fail "bad fault spec accepted"
   with Fault.Invalid_spec _ -> ());
  try
    ignore (Protocol.resolve_settings ~base
              { Protocol.no_overrides with sp_trace_blocks = Some 0 });
    Alcotest.fail "trace_blocks 0 accepted"
  with Invalid_argument _ -> ()

let test_spec_of_settings_round_trip () =
  let plan =
    match Fault.plan_of_spec "cache_corrupt:0.125,seed:11" with
    | Some p -> p
    | None -> Alcotest.fail "plan_of_spec returned None"
  in
  let s =
    Settings.resolve ~trace_blocks:2 ~sim_fuel:50000 ~cache_dir:None
      ~fault:(Some plan) ()
  in
  let s' =
    Protocol.resolve_settings ~base:(Test_util.env_settings ())
      (Protocol.spec_of_settings s)
  in
  Alcotest.(check int) "trace blocks" s.Settings.trace_blocks
    s'.Settings.trace_blocks;
  Alcotest.(check int) "sim fuel" s.Settings.sim_fuel s'.Settings.sim_fuel;
  Alcotest.(check bool) "cache off" true (s'.Settings.cache_dir = None);
  match s'.Settings.fault with
  | None -> Alcotest.fail "fault plan lost in transit"
  | Some plan' ->
      Alcotest.(check string) "plan spec survives" (Fault.to_spec plan)
        (Fault.to_spec plan')

(* ------------------------------------------------------------------ *)
(* Daemon integration                                                  *)

(* One raw connection, many request lines: responses may come back in
   any order, so collect them all and index by id. *)
let burst ~socket lines =
  let addr = Unix.ADDR_UNIX socket in
  let ic, oc = Unix.open_connection addr in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.shutdown_connection ic with _ -> ());
      close_in_noerr ic)
    (fun () ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      flush oc;
      List.map (fun _ -> input_line ic) lines)

let call_exn ~socket req =
  match Client.call ~socket req with
  | Ok resp -> resp
  | Error e -> Alcotest.failf "transport: %s" e

(* [Protocol.response]'s payloads are inlined records, which cannot
   escape a match; project the success arm into a plain record. *)
type result_fields = {
  rid : string;
  rexit : int;
  rout : string;
  rtel : J.t;
}

let expect_result = function
  | Protocol.Result { id; exit_code; output; telemetry; _ } ->
      { rid = id; rexit = exit_code; rout = output; rtel = telemetry }
  | Protocol.Failure f ->
      Alcotest.failf "unexpected failure %s: %s" f.code f.message

let test_daemon_end_to_end () =
  let socket = fresh_socket () in
  let server = Server.start
      { socket_path = socket; jobs = 2; queue_limit = 16;
        settings = Test_util.env_settings () } in
  Fun.protect
    ~finally:(fun () -> try Server.stop server with _ -> ())
    (fun () ->
      (* a second daemon on a live socket is refused *)
      (try
         ignore
           (Server.create
              { socket_path = socket; jobs = 1; queue_limit = 1;
                settings = Test_util.env_settings () });
         Alcotest.fail "second daemon bound a live socket"
       with Failure _ -> ());
      let ping =
        expect_result
          (call_exn ~socket
             { id = "p0"; priority = 0; settings = Protocol.no_overrides;
               verb = Protocol.Ping })
      in
      Alcotest.(check string) "pong" "pong\n" ping.rout;
      (* fault containment: a malformed line costs one error response *)
      (match burst ~socket [ "this is not json" ] with
      | [ line ] -> (
          match Protocol.parse_response line with
          | Ok (Protocol.Failure f) ->
              Alcotest.(check string) "parse error code" "parse_error" f.code
          | _ -> Alcotest.fail "malformed line not answered with parse_error")
      | _ -> Alcotest.fail "expected one response");
      (* ... as does an injected bad fault spec ... *)
      (match
         call_exn ~socket
           (search_request
              ~settings:{ no_disk_cache with sp_fault = Some (Some "bogus_kind:0.5") }
              "bad-fault")
       with
      | Protocol.Failure f ->
          Alcotest.(check string) "bad fault spec code" "invalid_request" f.code
      | Protocol.Result _ -> Alcotest.fail "bad fault spec accepted");
      (* ... and the daemon is still alive afterwards *)
      let ping =
        expect_result
          (call_exn ~socket
             { id = "p1"; priority = 0; settings = Protocol.no_overrides;
               verb = Protocol.Ping })
      in
      Alcotest.(check string) "still serving" "pong\n" ping.rout;
      (* acceptance: >= 4 concurrent searches, byte-identical to the
         one-shot engine path *)
      let settings = Settings.resolve ~cache_dir:None () in
      let oneshot = Ops.search ~settings search_params in
      Alcotest.(check int) "one-shot exit code" 0 oneshot.exit_code;
      let results = Array.make 4 None in
      let threads =
        List.init 4 (fun i ->
            Thread.create
              (fun i ->
                let req =
                  search_request ~priority:i ~settings:no_disk_cache
                    (Printf.sprintf "c%d" i)
                in
                results.(i) <- Some (Client.call ~socket req))
              i)
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i r ->
          match r with
          | None -> Alcotest.failf "request c%d never completed" i
          | Some (Error e) -> Alcotest.failf "c%d transport: %s" i e
          | Some (Ok resp) ->
              let r = expect_result resp in
              Alcotest.(check string)
                (Printf.sprintf "c%d id" i)
                (Printf.sprintf "c%d" i)
                r.rid;
              Alcotest.(check int)
                (Printf.sprintf "c%d exit code" i)
                oneshot.exit_code r.rexit;
              Alcotest.(check string)
                (Printf.sprintf "c%d output bytes" i)
                oneshot.output r.rout)
        results;
      (* stats reports per-request tallies *)
      let stats =
        expect_result
          (call_exn ~socket
             { id = "st"; priority = 0; settings = Protocol.no_overrides;
               verb = Protocol.Stats })
      in
      Alcotest.(check bool) "stats text" true
        (String.length stats.rout > 9
        && String.sub stats.rout 0 9 = "requests:");
      let member k =
        match J.member k stats.rtel with
        | Some v -> v
        | None -> Alcotest.failf "stats telemetry lacks %s" k
      in
      (match member "total" with
      | J.Int n -> Alcotest.(check bool) "total counts requests" true (n >= 7)
      | _ -> Alcotest.fail "total not an int");
      (match member "errors" with
      | J.Int n -> Alcotest.(check bool) "errors counted" true (n >= 2)
      | _ -> Alcotest.fail "errors not an int");
      (match member "recent" with
      | J.List entries ->
          Alcotest.(check bool) "recent entries present" true
            (List.length entries >= 4);
          List.iter
            (fun e ->
              if J.member "verb" e = Some (J.Str "search") then
                let tel = J.member "telemetry" e in
                let has k = Option.bind tel (J.member k) <> None in
                Alcotest.(check bool)
                  "search entries carry per-request tallies" true
                  (has "search" && has "pool" && has "fault"))
            entries
      | _ -> Alcotest.fail "recent not a list"));
  Alcotest.(check bool) "socket unlinked on stop" false (Sys.file_exists socket)

(* A request line past the cap costs one [request_too_large] failure:
   the daemon drops the rest of the line unread and keeps serving the
   connection — the golden search on the next line answers its golden
   bytes. *)
let test_daemon_oversized_line () =
  let socket = fresh_socket () in
  let server =
    Server.start
      { socket_path = socket; jobs = 1; queue_limit = 4;
        settings = Test_util.env_settings () }
  in
  Fun.protect
    ~finally:(fun () -> try Server.stop server with _ -> ())
    (fun () ->
      let k1, k2, digest =
        In_channel.with_open_bin (Filename.concat "golden" "search.md5")
          In_channel.input_lines
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with
               | [ k1; k2; "1"; "1"; "-"; digest ] -> Some (k1, k2, digest)
               | _ -> None)
        |> Option.get
      in
      let golden =
        {
          (search_request ~settings:no_disk_cache "golden") with
          verb =
            Protocol.Work
              (Ops.Search
                 {
                   search_params with
                   s_k1 = Registry.find_exn k1;
                   s_k2 = Registry.find_exn k2;
                   s_size1 = Some 1;
                   s_size2 = Some 1;
                   s_emit = false;
                 });
        }
      in
      let oversized =
        "{\"id\":\"big\",\"pad\":\""
        ^ String.make Protocol.max_request_bytes 'x'
        ^ "\"}"
      in
      match
        List.map Protocol.parse_response
          (burst ~socket [ oversized; Protocol.request_to_line golden ])
      with
      | [ Ok (Protocol.Failure f); Ok r ] ->
          Alcotest.(check string) "failure code" "request_too_large" f.code;
          Alcotest.(check (option string)) "no id read" None f.id;
          let r = expect_result r in
          Alcotest.(check string) "golden id" "golden" r.rid;
          Alcotest.(check string) "golden search bytes" digest
            (Digest.to_hex (Digest.string r.rout))
      | _ -> Alcotest.fail "expected a failure, then the golden search")

let test_daemon_admission_control () =
  let socket = fresh_socket () in
  let server = Server.start
      { socket_path = socket; jobs = 1; queue_limit = 1;
        settings = Test_util.env_settings () } in
  Fun.protect
    ~finally:(fun () -> try Server.stop server with _ -> ())
    (fun () ->
      (* 8 searches into a 1-worker, 1-slot daemon: some run, some
         queue, and with at most 2 admitted at any instant at least
         one of the burst must be refused *)
      let lines =
        List.init 8 (fun i ->
            Protocol.request_to_line
              (search_request ~settings:no_disk_cache
                 (Printf.sprintf "b%d" i)))
      in
      let responses = burst ~socket lines in
      Alcotest.(check int) "every request answered" 8 (List.length responses);
      let ok, overloaded =
        List.fold_left
          (fun (ok, ov) line ->
            match Protocol.parse_response line with
            | Ok (Protocol.Result r) when r.exit_code = 0 -> (ok + 1, ov)
            | Ok (Protocol.Failure f) when f.code = "overloaded" -> (ok, ov + 1)
            | Ok _ -> Alcotest.failf "unexpected response: %s" line
            | Error e -> Alcotest.failf "unparseable response: %s" e)
          (0, 0) responses
      in
      Alcotest.(check bool) "some requests served" true (ok >= 1);
      Alcotest.(check bool) "some requests refused" true (overloaded >= 1);
      Alcotest.(check int) "no response lost" 8 (ok + overloaded);
      let stats =
        expect_result
          (call_exn ~socket
             { id = "st"; priority = 0; settings = Protocol.no_overrides;
               verb = Protocol.Stats })
      in
      match J.member "overloaded" stats.rtel with
      | Some (J.Int n) ->
          Alcotest.(check int) "stats counts refusals" overloaded n
      | _ -> Alcotest.fail "stats telemetry lacks overloaded")

let test_stale_socket_replaced () =
  let socket = fresh_socket () in
  (* simulate a dead daemon: a bound socket file with no listener *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.close fd;
  Alcotest.(check bool) "stale file present" true (Sys.file_exists socket);
  let server = Server.start
      { socket_path = socket; jobs = 1; queue_limit = 1;
        settings = Test_util.env_settings () } in
  Fun.protect
    ~finally:(fun () -> try Server.stop server with _ -> ())
    (fun () ->
      let ping =
        expect_result
          (call_exn ~socket
             { id = "p"; priority = 0; settings = Protocol.no_overrides;
               verb = Protocol.Ping })
      in
      Alcotest.(check string) "rebound over stale socket" "pong\n" ping.rout)

(* ------------------------------------------------------------------ *)
(* The native baseline through the report tiers                        *)

(* a fresh, empty root under the test process's temp dir *)
let fresh_root tag =
  let root = Test_util.tmp_path ("serve_" ^ tag) in
  Test_util.rm_rf root;
  root

let settings_at root = Settings.resolve ~cache_dir:root ~fault:None ()

(* a one-shot CLI process: empty memo tiers, then the verb *)
let oneshot settings =
  Runner.clear_cache ();
  let o = Ops.search ~settings search_params in
  Alcotest.(check int) "search exit code" 0 o.exit_code;
  o

let telemetry_count (o : Ops.outcome) section field =
  match Option.bind (J.member section o.telemetry) (J.member field) with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "%s telemetry lacks %s" section field

let cache_count o field = telemetry_count o "cache" field

(* the report key of the search's native baseline *)
let native_key settings =
  let arch = search_params.s_arch in
  let mem = Gpusim.Memory.create () in
  let conf spec size = Runner.configure mem spec ~size:(Option.get size) in
  let c1 = conf search_params.s_k1 search_params.s_size1 in
  let c2 = conf search_params.s_k2 search_params.s_size2 in
  Profile_cache.report_key ~arch:arch.Gpusim.Arch.name ~policy:"fifo"
    [
      Runner.spec_of ~settings ~arch:arch.Gpusim.Arch.name c1 ~stream:0 ();
      Runner.spec_of ~settings ~arch:arch.Gpusim.Arch.name c2 ~stream:1 ();
    ]

let test_search_warm_replays_nothing () =
  let settings = settings_at (Some (fresh_root "warm")) in
  let cold = oneshot settings in
  Alcotest.(check int) "cold stores: candidates, two solos, the baseline"
    (telemetry_count cold "search" "profiled" + 3)
    (cache_count cold "stores");
  let warm = oneshot settings in
  Alcotest.(check string) "warm output bytes" cold.output warm.output;
  Alcotest.(check int) "warm misses" 0 (cache_count warm "misses");
  Alcotest.(check int) "warm stores" 0 (cache_count warm "stores");
  (* every lookup the cold run made — its stores (candidates, two solo
     reports, the native baseline) and its probe re-hits — is a hit *)
  Alcotest.(check int) "warm hits"
    (cache_count cold "stores" + cache_count cold "hits")
    (cache_count warm "hits")

let test_search_heals_corrupt_native () =
  let root = fresh_root "corrupt" in
  let settings = settings_at (Some root) in
  let cold = oneshot settings in
  (* truncate the committed native entry to half, as the cache_corrupt
     chaos hook does *)
  let path =
    Filename.concat (Profile_cache.dir (Settings.cache settings))
      (native_key settings)
  in
  Alcotest.(check bool) "native report entry committed" true
    (Sys.file_exists path);
  Unix.truncate path ((Unix.stat path).Unix.st_size / 2);
  let healed = oneshot settings in
  Alcotest.(check string) "recomputed output bytes" cold.output healed.output;
  Alcotest.(check int) "native entry quarantined" 1
    (cache_count healed "quarantined");
  Alcotest.(check int) "native entry re-stored" 1 (cache_count healed "stores");
  let again = oneshot settings in
  Alcotest.(check string) "healed entry serves" cold.output again.output;
  Alcotest.(check int) "healed cache misses nothing" 0
    (cache_count again "misses")

(* A resumed no-cache search answers everything from its run's own
   root under [_hfuse_cache/journal/]: its native baseline, candidate
   times and solo traces.  Nothing is profiled, recorded or stored
   again. *)
let test_search_resume_answers_native () =
  let settings = Test_profiler.fresh_resumable [ "serve"; "resume" ] in
  let first = oneshot settings in
  Alcotest.(check bool) "the run's root holds the native report" true
    (Profile_cache.find_report (Settings.cache settings)
       ~key:(native_key settings)
    <> None);
  Alcotest.(check bool) "the first run records traces" true
    (telemetry_count first "trace_store" "recorded" > 0);
  let resumed = oneshot settings in
  Alcotest.(check string) "resumed output bytes" first.output resumed.output;
  Alcotest.(check int) "nothing profiled" 0
    (telemetry_count resumed "search" "profiled");
  Alcotest.(check int) "no trace recorded" 0
    (telemetry_count resumed "trace_store" "recorded");
  Alcotest.(check int) "nothing stored" 0 (cache_count resumed "stores")

(* Distinct searches, each small enough to run in a fraction of a
   second. *)
let tier_searches =
  List.map
    (fun (k1, k2, n) ->
      {
        search_params with
        s_k1 = Registry.find_exn k1;
        s_k2 = Registry.find_exn k2;
        s_size1 = Some n;
        s_size2 = Some n;
        s_emit = false;
      })
    [ ("Maxpool", "Upsample", 1); ("Batchnorm", "Hist", 1);
      ("Maxpool", "Upsample", 32) ]

(* The one memory tier under a forced small bound: across a run of
   distinct searches it fits the bound after every request (or holds
   just its newest entry), and every answer is byte-identical to an
   unbounded run's. *)
let test_bounded_tier_identity () =
  let settings = settings_at None in
  let run p =
    let o = Ops.search ~settings p in
    Alcotest.(check int) "search exit code" 0 o.exit_code;
    o.output
  in
  let unbounded =
    List.map
      (fun p ->
        Runner.clear_cache ();
        run p)
      tier_searches
  in
  let bound = 200_000 in
  Runner.clear_cache ();
  Fun.protect ~finally:(fun () ->
      Trace_store.set_mem_limit_override None;
      Runner.clear_cache ())
  @@ fun () ->
  Trace_store.set_mem_limit_override (Some bound);
  let (), ledger =
    Ledger.run @@ fun () ->
    List.iter2
      (fun p expected ->
        Alcotest.(check string) "bounded output bytes" expected (run p);
        let bytes = Trace_store.mem_bytes () in
        Alcotest.(check bool)
          (Printf.sprintf "tier within the bound (%d bytes)" bytes)
          true
          (bytes <= bound || Trace_store.mem_entries () = 1))
      tier_searches unbounded
  in
  Alcotest.(check bool) "the bound evicted traces" true
    (Ledger.get ledger Trace_store.evictions > 0)

(* With the cache off and no bound, the memory tier alone answers a
   repeated search: no candidate profiled (its times are in the tier),
   no trace recorded, no entry added, the native report found there.
   Clearing it drops traces, reports and times alike. *)
let test_memos_live_in_tier () =
  let settings = settings_at None in
  let first = oneshot settings in
  let held = Trace_store.mem_entries () in
  let native_report () =
    Trace_store.(find_memo Report) ~key:(native_key settings) <> None
  in
  Alcotest.(check bool) "the native report is in the tier" true
    (native_report ());
  let again = Ops.search ~settings search_params in
  Alcotest.(check string) "repeat output bytes" first.output again.output;
  Alcotest.(check int) "repeat profiles nothing" 0
    (telemetry_count again "search" "profiled");
  Alcotest.(check int) "repeat traces nothing" 0
    (telemetry_count again "search" "traced");
  Alcotest.(check int) "repeat adds no entry" held
    (Trace_store.mem_entries ());
  Runner.clear_cache ();
  Alcotest.(check int) "clear_cache empties the tier" 0
    (Trace_store.mem_entries ());
  Alcotest.(check int) "and every byte" 0 (Trace_store.mem_bytes ());
  Alcotest.(check bool) "the native report is gone" false (native_report ());
  let third = Ops.search ~settings search_params in
  Alcotest.(check bool) "times and traces are gone too" true
    (telemetry_count third "search" "profiled"
     = telemetry_count first "search" "profiled"
    && telemetry_count third "search" "traced"
       = telemetry_count first "search" "traced")

(* A client that disconnects mid-search costs the daemon nothing
   lasting.  A half-closed client (it shut its sending side after the
   request) still reads its answer.  A client that closes mid-search
   leaves its descriptor open in the daemon until the search has
   answered, so a client connecting next never reads the vanished
   client's answer; that client then gets a pong, and a repeat search
   answers with the lone search's bytes. *)
let test_disconnect_mid_search () =
  let lone = (oneshot (settings_at None)).output in
  Runner.clear_cache ();
  let socket = fresh_socket () in
  let server =
    Server.start
      { socket_path = socket; jobs = 1; queue_limit = 4;
        settings = settings_at None }
  in
  Fun.protect ~finally:(fun () ->
      (try Server.stop server with _ -> ());
      Runner.clear_cache ())
  @@ fun () ->
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    fd
  in
  let write fd req =
    let line = Protocol.request_to_line req ^ "\n" in
    ignore (Unix.write_substring fd line 0 (String.length line))
  in
  let search id = search_request ~settings:no_disk_cache id in
  let fd = connect () in
  write fd (search "half");
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let ic = Unix.in_channel_of_descr fd in
  (match input_line ic with
  | line -> (
      match Protocol.parse_response line with
      | Ok resp ->
          let r = expect_result resp in
          Alcotest.(check string) "half-closed client's id" "half" r.rid;
          Alcotest.(check string) "half-closed client's bytes" lone r.rout
      | Error e -> Alcotest.failf "unparseable answer: %s" e)
  | exception End_of_file ->
      Alcotest.fail "a half-closed client lost its answer");
  close_in_noerr ic;
  let fd = connect () in
  write fd (search "gone");
  Unix.close fd;
  (* connect after the daemon's reader has seen the vanished client's
     end, so a descriptor closed at that point would be reused *)
  Unix.sleepf 0.1;
  let ic, oc = Unix.open_connection (Unix.ADDR_UNIX socket) in
  Fun.protect ~finally:(fun () ->
      (try Unix.shutdown_connection ic with _ -> ());
      close_in_noerr ic)
  @@ fun () ->
  (* every line this client reads must answer its own request *)
  let ask (req : Protocol.request) =
    output_string oc (Protocol.request_to_line req);
    output_char oc '\n';
    flush oc;
    let line = input_line ic in
    match Protocol.parse_response line with
    | Ok (Protocol.Result { id; _ } as resp) when id = req.id ->
        expect_result resp
    | _ -> Alcotest.failf "read a line that is not its answer: %s" line
  in
  let simple id verb =
    { Protocol.id; priority = 0; settings = Protocol.no_overrides; verb }
  in
  let answered_gone () =
    match J.member "recent" (ask (simple "st" Protocol.Stats)).rtel with
    | Some (J.List entries) ->
        List.exists (fun e -> J.member "id" e = Some (J.Str "gone")) entries
    | _ -> Alcotest.fail "stats telemetry lacks recent"
  in
  let rec wait n =
    if not (answered_gone ()) then
      if n = 0 then Alcotest.fail "the vanished client's search never ran"
      else (
        Unix.sleepf 0.05;
        wait (n - 1))
  in
  wait 400;
  (* room for a misdirected answer to arrive before the next reads *)
  Unix.sleepf 0.1;
  Alcotest.(check string) "pong" "pong\n"
    (ask (simple "p" Protocol.Ping)).rout;
  Alcotest.(check string) "repeat search bytes" lone (ask (search "again")).rout

(* Two identical cache-off searches at once, as two daemon requests
   would run: every trace and every candidate time goes through the
   memory tier's single-flight, so together they record and profile
   what a lone search does, and both answer byte-identically to it.  A
   time one request took from the other's claim counts as a hit.  Each
   request's telemetry counts its own work only, so the two requests'
   recordings sum to the lone search's. *)
let test_concurrent_searches_share_traces () =
  let settings = { (settings_at None) with trace_mem_mb = 0 } in
  let p = { search_params with s_size1 = Some 8; s_size2 = Some 8 } in
  let recorded f =
    Runner.clear_cache ();
    let outcomes, ledger = Ledger.run f in
    (outcomes, Ledger.get ledger Trace_store.recorded)
  in
  let search () = Ops.search ~settings p in
  let lone, lone_recorded = recorded (fun () -> [| search () |]) in
  let both, both_recorded =
    recorded (fun () ->
        Hfuse_parallel.Pool.with_pool 2 (fun pool ->
            Hfuse_parallel.Pool.map pool search [| (); () |]))
  in
  let sum_in section field =
    Array.fold_left (fun n o -> n + telemetry_count o section field) 0 both
  in
  let sum = sum_in "search" in
  let lone = lone.(0) in
  let lone_n field = telemetry_count lone "search" field in
  Alcotest.(check bool) "a lone search records traces" true (lone_recorded > 0);
  Array.iter
    (fun (o : Ops.outcome) ->
      Alcotest.(check string) "concurrent output bytes" lone.output o.output)
    both;
  Alcotest.(check int) "each trace recorded once" lone_recorded both_recorded;
  Alcotest.(check int) "the requests' own recordings sum to a lone search's"
    lone_recorded
    (sum_in "trace_store" "recorded");
  Alcotest.(check int) "each candidate profiled once" (lone_n "profiled")
    (sum "profiled");
  (* both searches make a lone search's lookups; all but one profile
     of each candidate are hits *)
  Alcotest.(check int) "every other lookup is a hit"
    (lone_n "profiled" + (2 * lone_n "cache_hits"))
    (sum "cache_hits")

(* The daemon's [stats] counters are the sum of its requests' own:
   after concurrent searches, every trace-store and pool counter equals
   the requests' telemetry summed (the memory-tier gauges aside). *)
let test_stats_sum_requests () =
  Runner.clear_cache ();
  let socket = fresh_socket () in
  let server =
    Server.start
      { socket_path = socket; jobs = 2; queue_limit = 8;
        settings = settings_at None }
  in
  Fun.protect ~finally:(fun () ->
      (try Server.stop server with _ -> ());
      Runner.clear_cache ())
  @@ fun () ->
  let p = { search_params with s_size1 = Some 8; s_size2 = Some 8 } in
  let request i =
    Protocol.request_to_line
      {
        (search_request ~settings:no_disk_cache (Printf.sprintf "s%d" i)) with
        verb = Protocol.Work (Ops.Search p);
      }
  in
  let telemetry =
    List.map
      (fun line ->
        match Protocol.parse_response line with
        | Ok resp -> (expect_result resp).rtel
        | Error e -> Alcotest.failf "unparseable answer: %s" e)
      (burst ~socket (List.init 3 request))
  in
  let stats =
    expect_result
      (call_exn ~socket
         { id = "st"; priority = 0; settings = Protocol.no_overrides;
           verb = Protocol.Stats })
  in
  let count section field tel =
    match Option.bind (J.member section tel) (J.member field) with
    | Some (J.Int n) -> n
    | _ -> Alcotest.failf "telemetry lacks %s.%s" section field
  in
  Alcotest.(check bool) "the searches recorded traces" true
    (count "trace_store" "recorded" stats.rtel > 0);
  List.iter
    (fun section ->
      match J.member section stats.rtel with
      | Some (J.Obj fields) ->
          List.iter
            (fun (field, v) ->
              match v with
              | J.Int total
                when not (List.mem field [ "mem_entries"; "mem_bytes" ]) ->
                  Alcotest.(check int)
                    (Printf.sprintf "stats %s.%s is the requests' sum" section
                       field)
                    (List.fold_left
                       (fun n tel -> n + count section field tel)
                       0 telemetry)
                    total
              | _ -> ())
            fields
      | _ -> Alcotest.failf "stats telemetry lacks %s" section)
    [ "trace_store"; "pool"; "search" ]

(* A request the verifier rejects answers as a failure, yet its search
   counted the rejection in the daemon's ledger: [stats] shows it. *)
let test_stats_count_rejected_requests () =
  Runner.clear_cache ();
  let socket = fresh_socket () in
  let server =
    Server.start
      { socket_path = socket; jobs = 1; queue_limit = 8;
        settings = settings_at None }
  in
  Fun.protect ~finally:(fun () ->
      (try Server.stop server with _ -> ());
      Runner.clear_cache ())
  @@ fun () ->
  let p =
    {
      search_params with
      s_k1 = Registry.find_exn "Hist";
      s_k2 = Registry.find_exn "SHA256";
      s_size1 = Some 1;
      s_size2 = Some 1;
      s_emit = false;
    }
  in
  (match
     call_exn ~socket
       {
         (search_request ~settings:no_disk_cache "rej") with
         verb = Protocol.Work (Ops.Search p);
       }
   with
  | Protocol.Failure f ->
      Alcotest.(check string) "rejected as a verdict" "rejected" f.code;
      Alcotest.(check bool) "the message names the exception" true
        (Test_util.contains f.message "No_valid_partition")
  | Protocol.Result _ -> Alcotest.fail "Hist+SHA256 was not rejected");
  let stats =
    expect_result
      (call_exn ~socket
         { id = "st"; priority = 0; settings = Protocol.no_overrides;
           verb = Protocol.Stats })
  in
  Alcotest.(check bool) "a verdict is not an error" true
    (J.member "errors" stats.rtel = Some (J.Int 0));
  Alcotest.(check (option int)) "stats search.rej_over-budget" (Some 1)
    (match
       Option.bind (J.member "search" stats.rtel) (J.member "rej_over-budget")
     with
    | Some (J.Int n) -> Some n
    | _ -> None);
  Alcotest.(check bool) "stats prints the rejection" true
    (List.mem "search: rej_over-budget 1"
       (String.split_on_char '\n' stats.rout))

(* A search whose every candidate fails to profile (here: a fuel of 10
   instructions) is a verdict too: the daemon answers it with its own
   [all_failed] code, not [internal], leaves it out of [errors], and the
   routed CLI's outcome is the one-shot CLI's to the byte. *)
let test_all_failed_search () =
  let p =
    {
      search_params with
      s_k1 = Registry.find_exn "Batchnorm";
      s_k2 = Registry.find_exn "Hist";
      s_size1 = Some 1;
      s_size2 = Some 1;
      s_emit = false;
    }
  in
  Runner.clear_cache ();
  let oneshot, stderr =
    Test_util.capture_stderr (fun () ->
        match
          Ops.search
            ~settings:
              (Settings.resolve ~cache_dir:None ~fault:None ~sim_fuel:10 ())
            p
        with
        | _ -> Alcotest.fail "a fuel of 10 let a candidate profile"
        | exception Runner.All_candidates_failed message ->
            Ops.all_failed message)
  in
  (* each failed candidate is warned about once, by a line naming its
     partition and its register bound *)
  let warnings =
    List.filter
      (String.starts_with ~prefix:"hfuse: warning: candidate")
      (String.split_on_char '\n' stderr)
  in
  Alcotest.(check bool) "candidates warned about" true (warnings <> []);
  Alcotest.(check int) "distinct warnings" (List.length warnings)
    (List.length (List.sort_uniq compare warnings));
  Alcotest.(check int) "one-shot exit code" 1 oneshot.Ops.exit_code;
  Alcotest.(check string) "one-shot stderr"
    "hfuse: every candidate of Batchnorm + Hist failed to profile\n"
    oneshot.Ops.log;
  Runner.clear_cache ();
  let socket = fresh_socket () in
  let server =
    Server.start
      { socket_path = socket; jobs = 1; queue_limit = 8;
        settings = settings_at None }
  in
  Fun.protect ~finally:(fun () ->
      (try Server.stop server with _ -> ());
      Runner.clear_cache ())
  @@ fun () ->
  (match
     call_exn ~socket
       {
         (search_request
            ~settings:{ no_disk_cache with sp_sim_fuel = Some 10 }
            "all-failed")
         with
         verb = Protocol.Work (Ops.Search p);
       }
   with
  | Protocol.Failure f ->
      Alcotest.(check string) "its own code" "all_failed" f.code;
      Alcotest.(check string) "code name"
        (Protocol.code_name Protocol.All_failed) f.code;
      let routed = Ops.all_failed f.message in
      Alcotest.(check int) "routed exit code" oneshot.exit_code
        routed.exit_code;
      Alcotest.(check string) "routed stderr" oneshot.log routed.log;
      Alcotest.(check string) "routed stdout" oneshot.output routed.output
  | Protocol.Result _ -> Alcotest.fail "a fuel of 10 let a candidate profile");
  let stats =
    expect_result
      (call_exn ~socket
         { id = "st"; priority = 0; settings = Protocol.no_overrides;
           verb = Protocol.Stats })
  in
  Alcotest.(check bool) "a verdict is not an error" true
    (J.member "errors" stats.rtel = Some (J.Int 0))

(* The one-shot stderr counter lines of cold cache-off searches, wall
   times masked, at -j 1 and -j 2: the counts read before per-request
   ledgers replaced process-wide tallies. *)
let mask_walls log =
  String.split_on_char '\n' log
  |> List.map (fun line ->
         String.split_on_char ',' line
         |> List.map (fun field ->
                if String.ends_with ~suffix:" wall" field then
                  let secs = String.index field 's' in
                  " _" ^ String.sub field secs (String.length field - secs)
                else field)
         |> String.concat ",")
  |> String.concat "\n"

let test_oneshot_counter_lines () =
  let settings = settings_at None in
  List.iter
    (fun (k1, k2, size, top_k, expected) ->
      List.iter
        (fun jobs ->
          Runner.clear_cache ();
          let o =
            Ops.search ~settings
              {
                search_params with
                s_k1 = Registry.find_exn k1;
                s_k2 = Registry.find_exn k2;
                s_size1 = Some size;
                s_size2 = Some size;
                s_emit = false;
                s_jobs = jobs;
                s_top_k = top_k;
              }
          in
          Alcotest.(check string)
            (Printf.sprintf "%s+%s at -j %d" k1 k2 jobs)
            expected (mask_walls o.log))
        [ 1; 2 ])
    [
      ( "Maxpool", "Upsample", 8, None,
        "search: 11 candidates profiled, 6 cache hits, _s profiling wall, 7 \
         traces recorded, 1 trace hit, 3 merged, _s trace wall, model \
         agreement 1/1 (max regret 0.00%)\n\
         trace store: 3 mem hits, 0 disk hits, 9 recorded, 3 merged\n" );
      ( "Batchnorm", "Hist", 1, Some 8,
        "search: 11 candidates profiled, 3 cache hits, _s profiling wall, 7 \
         traces recorded, 0 trace hits, 4 merged, _s trace wall, 6 pruned\n\
         trace store: 2 mem hits, 0 disk hits, 9 recorded, 4 merged\n" );
    ];
  Runner.clear_cache ()

(* A pair the verifier rejects raises before anything is replayed: no
   native baseline, no solo trace recorded, nothing stored. *)
let test_rejected_search_records_nothing () =
  let root = fresh_root "rejected" in
  let settings = settings_at (Some root) in
  Runner.clear_cache ();
  let (), ledger =
    Ledger.run @@ fun () ->
    match
      Ops.search ~settings
        {
          search_params with
          s_k1 = Registry.find_exn "Hist";
          s_k2 = Registry.find_exn "SHA256";
          s_size1 = Some 1;
          s_size2 = Some 1;
          s_emit = false;
          s_top_k = Some 8;
        }
    with
    | _ -> Alcotest.fail "Hist+SHA256 was not rejected"
    | exception Hfuse_core.Search.No_valid_partition _ -> ()
  in
  Alcotest.(check int) "traces recorded" 0
    (Ledger.get ledger Trace_store.recorded);
  let rec files p =
    if not (Sys.file_exists p) then []
    else if Sys.is_directory p then
      List.concat_map (fun f -> files (Filename.concat p f))
        (Array.to_list (Sys.readdir p))
    else [ p ]
  in
  Alcotest.(check (list string)) "entries under the root" [] (files root)

(* The one-shot CLI answers a rejected pair with the verifier's
   message on stderr and exit code 1. *)
let test_oneshot_rejected () =
  let settings = settings_at None in
  let o =
    match
      Ops.search ~settings
        {
          search_params with
          s_k1 = Registry.find_exn "Hist";
          s_k2 = Registry.find_exn "SHA256";
          s_size1 = Some 1;
          s_size2 = Some 1;
          s_emit = false;
        }
    with
    | _ -> Alcotest.fail "Hist+SHA256 was not rejected"
    | exception Hfuse_core.Search.No_valid_partition message ->
        Ops.rejected message
  in
  Alcotest.(check int) "exit code" 1 o.Ops.exit_code;
  Alcotest.(check string) "stdout" "" o.Ops.output;
  Alcotest.(check string) "stderr"
    "hfuse: rejected: hist + sha256: the fusion-safety verifier rejected \
     all 1 partition(s)\n"
    o.Ops.log

(* stdout of [Ops.search] against md5s recorded before the cost
   model's probe picker was shared between the unbounded and the capped
   groups: both pairs fit unbounded probes and a three-member capped
   group, so the printed [model …] scores and pruned lines pin which
   candidates were probed *)
let golden_search_lines () =
  In_channel.with_open_bin (Filename.concat "golden" "search.md5")
    In_channel.input_lines
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let test_golden_search_bytes () =
  let settings = settings_at None in
  golden_search_lines ()
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | [ k1; k2; n1; n2; k; digest ] ->
             let o =
               Ops.search ~settings
                 {
                   search_params with
                   s_k1 = Registry.find_exn k1;
                   s_k2 = Registry.find_exn k2;
                   s_size1 = Some (int_of_string n1);
                   s_size2 = Some (int_of_string n2);
                   s_emit = false;
                   s_top_k =
                     (if k = "-" then None else Some (int_of_string k));
                 }
             in
             Alcotest.(check string) line digest
               (Digest.to_hex (Digest.string o.output))
         | [ _; _; _; _ ] -> () (* representative sizes: see below *)
         | _ -> Alcotest.failf "malformed golden line %S" line)

(* The entry names a cold exhaustive search writes into a fresh root —
   time, report and trace entries, as paths relative to the root —
   against [golden/keys.md5], recorded before each search printed its
   fused kernels once.  The names are content keys over the printed
   source, so matching them is what keeps an existing cache root warm
   across a change to the printer or the search. *)
let rec entry_names root rel =
  let dir = if rel = "" then root else Filename.concat root rel in
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun f ->
         let rel = if rel = "" then f else rel ^ "/" ^ f in
         if Sys.is_directory (Filename.concat root rel) then
           entry_names root rel
         else [ rel ])

let test_golden_cache_keys () =
  let lines =
    In_channel.with_open_bin (Filename.concat "golden" "keys.md5")
      In_channel.input_lines
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let searches =
    List.sort_uniq compare
      (List.map
         (fun l ->
           match String.split_on_char ' ' l with
           | [ k1; k2; n1; n2; _ ] -> (k1, k2, n1, n2)
           | _ -> Alcotest.failf "malformed golden line %S" l)
         lines)
  in
  List.iteri
    (fun i (k1, k2, n1, n2) ->
      let root = fresh_root (Printf.sprintf "keys%d" i) in
      Runner.clear_cache ();
      let o =
        Ops.search ~settings:(settings_at (Some root))
          {
            search_params with
            s_k1 = Registry.find_exn k1;
            s_k2 = Registry.find_exn k2;
            s_size1 = Some (int_of_string n1);
            s_size2 = Some (int_of_string n2);
            s_emit = false;
          }
      in
      Alcotest.(check int) "search exit code" 0 o.exit_code;
      let prefix = String.concat " " [ k1; k2; n1; n2 ] in
      Alcotest.(check (list string))
        (prefix ^ " entry names")
        (List.filter_map
           (fun l ->
             match String.split_on_char ' ' l with
             | [ a; b; c; d; name ] when (a, b, c, d) = (k1, k2, n1, n2) ->
                 Some name
             | _ -> None)
           lines)
        (List.sort compare (entry_names root "")))
    searches

(* One cold default-size Batchnorm+Hist search, shared by the two tests
   below.  It asks for 2 traced blocks and no cache in a process whose
   environment says 1 traced block and names an empty cache root: the
   size probe must follow the request's settings, not the
   environment. *)
let default_size_search =
  lazy
    (let root = fresh_root "env_cache" in
     Profile_cache.mkdir_p root;
     let set = [ ("HFUSE_TRACE_BLOCKS", "1"); ("HFUSE_CACHE_DIR", root) ] in
     let saved =
       List.map (fun (k, _) -> (k, Option.value (Sys.getenv_opt k) ~default:""))
         set
     in
     List.iter (fun (k, v) -> Unix.putenv k v) set;
     Fun.protect ~finally:(fun () ->
         List.iter (fun (k, v) -> Unix.putenv k v) saved)
     @@ fun () ->
     let settings = Settings.resolve ~trace_blocks:2 ~cache_dir:None () in
     Runner.clear_cache ();
     let o =
       Ops.search ~settings
         {
           search_params with
           s_k1 = Registry.find_exn "Batchnorm";
           s_k2 = Registry.find_exn "Hist";
           s_size1 = None;
           s_size2 = None;
           s_emit = false;
         }
     in
     (o.output, root))

let test_default_size_trace_blocks () =
  let digest =
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "Batchnorm"; "Hist"; "2"; digest ] -> Some digest
        | _ -> None)
      (golden_search_lines ())
  in
  let output, _ = Lazy.force default_size_search in
  Alcotest.(check (option string)) "stdout md5" digest
    (Some (Digest.to_hex (Digest.string output)))

let test_default_size_no_cache () =
  let _, root = Lazy.force default_size_search in
  Alcotest.(check (array string)) "nothing written under HFUSE_CACHE_DIR"
    [||] (Sys.readdir root)

let suite =
  [
    Alcotest.test_case "request lines round-trip" `Quick
      test_request_round_trip;
    Alcotest.test_case "response lines round-trip" `Quick
      test_response_round_trip;
    Alcotest.test_case "malformed requests are pre-shaped errors" `Quick
      test_parse_errors_pre_shaped;
    Alcotest.test_case "per-request settings resolve" `Quick
      test_resolve_settings;
    Alcotest.test_case "settings spec round-trips client to daemon" `Quick
      test_spec_of_settings_round_trip;
    Alcotest.test_case "daemon end to end: identity, containment, stats" `Slow
      test_daemon_end_to_end;
    Alcotest.test_case "oversized request line costs one failure" `Quick
      test_daemon_oversized_line;
    Alcotest.test_case "admission control refuses past the queue limit" `Slow
      test_daemon_admission_control;
    Alcotest.test_case
      "a client that disconnects mid-search costs nothing lasting" `Quick
      test_disconnect_mid_search;
    Alcotest.test_case "stale socket file is replaced" `Quick
      test_stale_socket_replaced;
    Alcotest.test_case "warm search replays nothing" `Quick
      test_search_warm_replays_nothing;
    Alcotest.test_case "corrupt native report heals" `Quick
      test_search_heals_corrupt_native;
    Alcotest.test_case "resume answers native from the journal" `Quick
      test_search_resume_answers_native;
    Alcotest.test_case "default-size search follows its traced blocks" `Slow
      test_default_size_trace_blocks;
    Alcotest.test_case "no-cache search ignores HFUSE_CACHE_DIR" `Slow
      test_default_size_no_cache;
    Alcotest.test_case "bounded memory tier answers byte-identically" `Quick
      test_bounded_tier_identity;
    Alcotest.test_case "memos live in the memory tier" `Quick
      test_memos_live_in_tier;
    Alcotest.test_case "concurrent searches record each trace once" `Quick
      test_concurrent_searches_share_traces;
    Alcotest.test_case "stats sums its requests' own counters" `Quick
      test_stats_sum_requests;
    Alcotest.test_case "stats counts rejected requests" `Quick
      test_stats_count_rejected_requests;
    Alcotest.test_case "one-shot counter lines" `Quick
      test_oneshot_counter_lines;
    Alcotest.test_case "one-shot rejected search exits 1" `Quick
      test_oneshot_rejected;
    Alcotest.test_case "all-failed search is a verdict" `Quick
      test_all_failed_search;
    Alcotest.test_case "rejected search records nothing" `Quick
      test_rejected_search_records_nothing;
    Alcotest.test_case "golden search bytes" `Quick test_golden_search_bytes;
    Alcotest.test_case "golden cache keys" `Quick test_golden_cache_keys;
  ]
