(* The on-disk formats, pinned byte for byte.  The files under
   [test/golden/] were written by the profile cache, the trace store and
   the fleet row journal before they shared {!Hfuse_profiler.Store}:
   every writer must keep producing those bytes, and every reader must
   take them as warm hits, so a cache root filled by an older binary
   stays warm.  Also the journal half of the store: escaping, header,
   torn-line accounting. *)

module Profile_cache = Hfuse_profiler.Profile_cache
module Trace_store = Hfuse_profiler.Trace_store
module Checkpoint = Hfuse_profiler.Checkpoint
module Store = Hfuse_profiler.Store
module Fleet = Hfuse_fleet.Fleet
module Trace = Gpusim.Trace

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let golden name = read_file (Filename.concat "golden" name)

let check_golden name actual =
  Alcotest.(check string) (name ^ " bytes") (golden name) actual

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let fresh_root tag =
  let root = Test_profiler.tmp_cache_dir ("store_" ^ tag) in
  rm_rf root;
  root

(* the pinned values *)
let time_key = Test_profiler.mk_key ()
let time_value = 0.12345678901234567 /. 3.0
let report_key = "r-golden"
let report_value =
  (Test_profiler.mk_report (), Test_profiler.mk_engine_stats ())

let trace_key =
  Trace_store.keys ~arch:"1080Ti" ~sim_fuel:1000 ~trace_blocks:1
    ~ident:[ "golden" ]

(* the corpus's last pair: two small generated kernels, one cheap search *)
let row_cfg () =
  let n = List.length (Fleet.all_pairs ()) in
  {
    (Test_fleet.test_cfg ()) with
    Fleet.limit = None;
    shards = n;
    shard = n - 1;
    resume = true;
  }

let rows_path cfg =
  Filename.concat Checkpoint.default_dir (Fleet.run_id cfg ^ ".rows")

(* -- writers produce the golden bytes ------------------------------------ *)

let test_cache_entry_bytes () =
  let cache = Profile_cache.create ~dir:(fresh_root "cache_bytes") () in
  Profile_cache.store cache ~key:time_key time_value;
  Profile_cache.store_report cache ~key:report_key report_value;
  let entry k = read_file (Filename.concat (Profile_cache.dir cache) k) in
  check_golden "time.entry" (entry time_key);
  check_golden "report.entry" (entry report_key)

let test_trace_entry_bytes () =
  let store = Trace_store.create ~dir:(fresh_root "trace_bytes") () in
  ignore
    (Test_profiler.get_traces store ~key:trace_key Test_profiler.mk_blocks);
  check_golden "trace.entry"
    (read_file
       (Filename.concat (Trace_store.dir store) trace_key.Trace_store.disk))

let test_fleet_row_bytes () =
  let cfg = row_cfg () in
  let path = rows_path cfg in
  if Sys.file_exists path then Sys.remove path;
  let r = Fleet.run cfg in
  Alcotest.(check int) "one row executed" 1 r.Fleet.executed;
  check_golden "fleet.rows" (read_file path)

(* -- readers take the golden bytes as warm hits -------------------------- *)

let test_golden_root_is_warm () =
  let root = fresh_root "warm" in
  let install dir key name =
    Profile_cache.mkdir_p dir;
    write_file (Filename.concat dir key) (golden name)
  in
  let entries = Filename.concat root "v2" in
  install entries time_key "time.entry";
  install entries report_key "report.entry";
  install
    (Filename.concat (Filename.concat root "traces") "v1")
    trace_key.Trace_store.disk "trace.entry";
  let cache = Profile_cache.create ~dir:root () in
  Alcotest.check Test_profiler.some_time "time entry hits" (Some time_value)
    (Profile_cache.find cache ~key:time_key);
  Alcotest.(check bool) "report entry hits" true
    (Profile_cache.find_report cache ~key:report_key = Some report_value);
  Alcotest.(check int) "two cache hits" 2 (Profile_cache.hits cache);
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
  Alcotest.(check int) "no trace quarantined" 0 (n Trace_store.quarantined);
  (* the golden row journal resumes without re-running its pair, and
     replays the row a clean run computes *)
  let cfg = row_cfg () in
  let path = rows_path cfg in
  Profile_cache.mkdir_p (Filename.dirname path);
  write_file path (golden "fleet.rows");
  let resumed = Fleet.run cfg in
  Alcotest.(check int) "row resumed" 1 resumed.Fleet.resumed;
  Alcotest.(check int) "nothing executed" 0 resumed.Fleet.executed;
  Alcotest.(check string) "journal untouched" (golden "fleet.rows")
    (read_file path);
  let clean = Fleet.run { cfg with Fleet.resume = false } in
  Alcotest.(check (list string)) "replayed row equals a clean run's"
    (List.map Test_fleet.row_repr clean.Fleet.rows)
    (List.map Test_fleet.row_repr resumed.Fleet.rows)

(* -- the journal grammar ------------------------------------------------- *)

let test_journal_lines () =
  let path = Filename.concat (fresh_root "journal") "j.jnl" in
  let reopen () = Store.Journal.open_ ~header:(Some "test journal") path in
  let payloads =
    [ "plain payload"; "back\\slash"; "two\nlines"; "nul\x00"; "" ]
  in
  let j, loaded, torn = reopen () in
  Alcotest.(check (pair (list string) int)) "new journal is empty" ([], 0)
    (loaded, torn);
  List.iter (Store.Journal.append j) payloads;
  Store.Journal.close j;
  let lines = String.split_on_char '\n' (read_file path) in
  Alcotest.(check string) "header line" "# test journal" (List.hd lines);
  (* a payload without backslash, newline or NUL is written verbatim *)
  Alcotest.(check string) "plain record verbatim"
    (Digest.to_hex (Digest.string "plain payload") ^ " plain payload")
    (List.nth lines 1);
  Alcotest.(check int) "one line per record" (2 + List.length payloads)
    (List.length lines);
  (* reopening loads the records in order and adds no second header *)
  let j, loaded, torn = reopen () in
  Alcotest.(check (pair (list string) int)) "records round-trip in order"
    (payloads, 0) (loaded, torn);
  Store.Journal.append j "after reopen";
  Store.Journal.close j;
  (* a garbled record and a torn tail are counted, not returned; the
     next append starts a line of its own *)
  Out_channel.with_open_gen [ Open_append ] 0o644 path (fun oc ->
      output_string oc
        "00000000000000000000000000000000 garbled\n0123456789abcdef torn");
  let j, loaded, torn = reopen () in
  Alcotest.(check (list string)) "intact records survive"
    (payloads @ [ "after reopen" ]) loaded;
  Alcotest.(check int) "damaged lines counted torn" 2 torn;
  Store.Journal.append j "after the tear";
  Store.Journal.close j;
  let j, loaded, torn = reopen () in
  Store.Journal.close j;
  Alcotest.(check (list string)) "appends after a torn tail survive"
    (payloads @ [ "after reopen"; "after the tear" ]) loaded;
  Alcotest.(check int) "still two torn lines" 2 torn

(* a checkpoint line in the pre-Store grammar, with a valid digest of
   that grammar, is counted torn and recomputed, never misread *)
let test_old_checkpoint_lines_torn () =
  let dir = fresh_root "old_journal" in
  let run_id =
    Checkpoint.run_id ~sim_fuel:3_000_000 ~trace_blocks:1
      ~parts:[ "old grammar" ] ()
  in
  let escaped = "0x1.2p-3\\n" in
  let digest = Digest.to_hex (Digest.string ("T\x00k\x00" ^ escaped)) in
  Profile_cache.mkdir_p dir;
  write_file
    (Filename.concat dir (run_id ^ ".jnl"))
    (Printf.sprintf "# hfuse-journal v2 run %s\nT k %s %s\n" run_id digest
       escaped);
  let ck = Checkpoint.open_ ~dir ~run_id () in
  Alcotest.(check int) "nothing loaded" 0 (Checkpoint.loaded ck);
  Alcotest.(check int) "old line torn" 1 (Checkpoint.torn ck);
  Alcotest.check Test_profiler.some_time "not replayed" None
    (Checkpoint.find_time ck ~key:"k");
  Checkpoint.close ck

let suite =
  [
    Alcotest.test_case "golden cache entry bytes" `Quick test_cache_entry_bytes;
    Alcotest.test_case "golden trace entry bytes" `Quick test_trace_entry_bytes;
    Alcotest.test_case "golden fleet row bytes" `Quick test_fleet_row_bytes;
    Alcotest.test_case "golden root reads warm" `Quick test_golden_root_is_warm;
    Alcotest.test_case "journal lines" `Quick test_journal_lines;
    Alcotest.test_case "old checkpoint lines load torn" `Quick
      test_old_checkpoint_lines_torn;
  ]
