(* The on-disk formats, pinned byte for byte.  The files under
   [test/golden/] were written by the profile cache and the trace store
   before they shared {!Hfuse_profiler.Store}: every writer must keep
   producing those bytes, and every reader must take them as warm hits,
   so a cache root filled by an older binary stays warm. *)

module Profile_cache = Hfuse_profiler.Profile_cache
module Trace_store = Hfuse_profiler.Trace_store
module Trace = Gpusim.Trace

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let golden name = read_file (Filename.concat "golden" name)

let check_golden name actual =
  Alcotest.(check string) (name ^ " bytes") (golden name) actual

let fresh_root tag =
  let root = Test_profiler.tmp_cache_dir ("store_" ^ tag) in
  Test_util.rm_rf root;
  root

(* the pinned values *)
let report_key = "r-golden"
let report_value = Test_profiler.mk_entry ()

let trace_key =
  Trace_store.key ~sim_fuel:1000 ~trace_blocks:1 ~ident:[ "golden" ]

(* -- writers produce the golden bytes ------------------------------------ *)

let test_cache_entry_bytes () =
  let cache = Profile_cache.create ~dir:(fresh_root "cache_bytes") () in
  Profile_cache.store_report cache ~key:report_key report_value;
  check_golden "report.entry"
    (read_file (Filename.concat (Profile_cache.dir cache) report_key))

let test_trace_entry_bytes () =
  let store = Trace_store.create ~dir:(fresh_root "trace_bytes") () in
  ignore
    (Test_profiler.get_traces store ~key:trace_key Test_profiler.mk_blocks);
  check_golden "trace.entry"
    (read_file
       (Filename.concat (Trace_store.dir store) trace_key))

(* -- readers take the golden bytes as warm hits -------------------------- *)

let test_golden_root_is_warm () =
  let root = fresh_root "warm" in
  let install dir key name =
    Profile_cache.mkdir_p dir;
    write_file (Filename.concat dir key) (golden name)
  in
  let entries = Filename.concat root "v2" in
  install entries report_key "report.entry";
  install
    (Filename.concat (Filename.concat root "traces") "v1")
    trace_key "trace.entry";
  let cache = Profile_cache.create ~dir:root () in
  Alcotest.check Test_profiler.some_entry "report entry hits"
    (Some report_value)
    (Profile_cache.find_report cache ~key:report_key);
  Alcotest.(check int) "one cache hit" 1 (Profile_cache.hits cache);
  Alcotest.(check int) "no cache stores" 0 (Profile_cache.stores cache);
  Alcotest.(check int) "nothing quarantined" 0 (Profile_cache.corrupt cache);
  Trace_store.clear_memory ();
  let traces, ledger =
    Ledger.run (fun () ->
        Test_profiler.get_traces
          (Trace_store.create ~dir:root ())
          ~key:trace_key
          (Test_profiler.must_hit "golden trace entry missed"))
  in
  Alcotest.(check string) "trace entry decodes"
    (Trace.encode_blocks (Test_profiler.mk_blocks ()))
    (Trace.encode_blocks traces);
  let n = Ledger.get ledger in
  Alcotest.(check int) "one trace disk hit" 1 (n Trace_store.disk_hits);
  Alcotest.(check int) "no trace stores" 0 (n Trace_store.stores);
  Alcotest.(check int) "no trace quarantined" 0 (n Trace_store.quarantined)

let suite =
  [
    Alcotest.test_case "golden cache entry bytes" `Quick test_cache_entry_bytes;
    Alcotest.test_case "golden trace entry bytes" `Quick test_trace_entry_bytes;
    Alcotest.test_case "golden root reads warm" `Quick test_golden_root_is_warm;
  ]
