(* Fleet tests: deterministic corpus curation, shard partitioning, row
   identity across shard counts, and kill/resume journal replay. *)

module Corpus = Hfuse_fleet.Corpus
module Fleet = Hfuse_fleet.Fleet
module Gen = Hfuse_fuzz.Gen
module Oracle = Hfuse_fuzz.Oracle
module Registry = Kernel_corpus.Registry
module Prng = Kernel_corpus.Prng
module Settings = Hfuse_profiler.Settings

(* a few in-process searches per test: quiet, no cache, no chaos *)
let test_settings () =
  Settings.resolve ~cache_dir:None ~fault:None ()

let test_cfg ?(limit = 3) () =
  { (Fleet.default_config (test_settings ())) with limit = Some limit }

let row_repr (r : Fleet.row) =
  Printf.sprintf "%d|%s|%s|%s|%s|%.17g|%.17g|%.17g" r.Fleet.r_index
    r.Fleet.r_pair r.Fleet.r_domain r.Fleet.r_status r.Fleet.r_digest
    r.Fleet.r_native_ms r.Fleet.r_best_ms r.Fleet.r_speedup_pct

let test_corpus_curated () =
  let entries = Corpus.curated () in
  Alcotest.(check int) "curated count" Corpus.generated_count
    (List.length entries);
  (* ascending, duplicate-free seeds; names encode the seed *)
  let seeds = List.map (fun e -> e.Corpus.seed) entries in
  Alcotest.(check bool) "seeds ascending" true
    (List.sort_uniq compare seeds = seeds);
  List.iter
    (fun e ->
      Alcotest.(check string) "name encodes seed"
        (Corpus.kernel_name e.Corpus.seed)
        e.Corpus.spec.Kernel_corpus.Spec.name)
    entries

let test_corpus_replay () =
  (* regenerating a curated seed reproduces the identical kernel, and
     it still vets — the scan is a pure function of the generator *)
  let entries = Corpus.curated () in
  List.iteri
    (fun i e ->
      if i < 3 then begin
        let prng = Prng.create (0x464C5400 + e.Corpus.seed) in
        let k =
          Gen.generate_kernel ~prng
            ~name:(Corpus.kernel_name e.Corpus.seed)
            ~grid:Kernel_corpus.Workload.default_grid ~allow_griddim:false ()
        in
        Alcotest.(check string)
          (Printf.sprintf "seed %d source stable" e.Corpus.seed)
          (Gen.kernel_source e.Corpus.kernel)
          (Gen.kernel_source k);
        match Corpus.vet k with
        | Ok () -> ()
        | Error msg ->
            Alcotest.failf "seed %d no longer vets: %s" e.Corpus.seed msg
      end)
    entries

let test_corpus_digest_stable () =
  Alcotest.(check string) "digest idempotent" (Corpus.digest ())
    (Corpus.digest ());
  Alcotest.(check int) "48 kernels"
    (List.length Registry.extended + Corpus.generated_count)
    (List.length (Corpus.all_specs ()))

let test_corpus_install () =
  Corpus.install ();
  Alcotest.(check bool) "gen kernel resolvable" true
    (Registry.find (Corpus.kernel_name
                      (List.hd (Corpus.curated ())).Corpus.seed)
     <> None);
  Alcotest.(check bool) "paper kernel still resolvable" true
    (Registry.find "Batchnorm" <> None)

let test_curated_pair_oracle () =
  (* the differential oracle accepts a curated pair: fused-vs-unfused
     memories agree (or fusion rejects it) — never a Failed verdict *)
  match Corpus.curated () with
  | e1 :: e2 :: _ -> (
      let case =
        { Gen.c_seed = e1.Corpus.seed; c_kernels = [ e1.Corpus.kernel; e2.Corpus.kernel ] }
      in
      match Oracle.run case with
      | Oracle.Equivalent | Oracle.Rejected _ -> ()
      | v -> Alcotest.failf "curated pair: %s" (Oracle.verdict_to_string v))
  | _ -> Alcotest.fail "corpus has fewer than two curated kernels"

let test_shard_partition () =
  (* for several shard counts: shards are disjoint and union to exactly
     the full pair list, preserving indices *)
  let full =
    Fleet.all_pairs () |> List.map (fun p -> p.Fleet.p_index)
  in
  Alcotest.(check int) "pair count"
    (let n = List.length (Corpus.all_specs ()) in
     n * (n - 1) / 2)
    (List.length full);
  List.iter
    (fun shards ->
      let parts =
        List.init shards (fun shard ->
            Fleet.shard_pairs
              { (test_cfg ()) with Fleet.shards; shard; limit = None })
      in
      let union =
        List.concat parts
        |> List.map (fun p -> p.Fleet.p_index)
        |> List.sort compare
      in
      Alcotest.(check (list int))
        (Printf.sprintf "%d shards union" shards)
        full union;
      (* disjoint: union has no duplicates iff lengths add up *)
      Alcotest.(check int)
        (Printf.sprintf "%d shards disjoint" shards)
        (List.length full)
        (List.fold_left ( + ) 0 (List.map List.length parts)))
    [ 1; 2; 3; 7 ]

let test_run_id_invariants () =
  let cfg = test_cfg () in
  Alcotest.(check string) "stable" (Fleet.run_id cfg) (Fleet.run_id cfg);
  (* jobs and via_server must NOT shape the journal identity — rows
     are bit-identical across them, so a resume may change either *)
  Alcotest.(check string) "jobs excluded" (Fleet.run_id cfg)
    (Fleet.run_id { cfg with Fleet.jobs = 7 });
  Alcotest.(check string) "via_server excluded" (Fleet.run_id cfg)
    (Fleet.run_id { cfg with Fleet.via_server = Some "/tmp/x.sock" });
  (* the shard, the cut and the corpus DO shape it *)
  Alcotest.(check bool) "shard included" true
    (Fleet.run_id cfg <> Fleet.run_id { cfg with Fleet.shards = 2; shard = 1 });
  Alcotest.(check bool) "limit included" true
    (Fleet.run_id cfg <> Fleet.run_id { cfg with Fleet.limit = Some 9 })

let test_rows_identical_across_shards () =
  (* the tentpole invariant at test scale: a 4-pair fleet run whole and
     run as two shards yields byte-identical rows *)
  let whole = Fleet.run { (test_cfg ~limit:4 ()) with Fleet.jobs = 1 } in
  let s0 =
    Fleet.run { (test_cfg ~limit:4 ()) with Fleet.shards = 2; shard = 0 }
  in
  let s1 =
    Fleet.run
      { (test_cfg ~limit:4 ()) with Fleet.shards = 2; shard = 1; jobs = 2 }
  in
  let union =
    List.sort
      (fun a b -> compare a.Fleet.r_index b.Fleet.r_index)
      (s0.Fleet.rows @ s1.Fleet.rows)
  in
  Alcotest.(check (list string))
    "sharded union == whole run"
    (List.map row_repr whole.Fleet.rows)
    (List.map row_repr union);
  List.iter
    (fun (r : Fleet.row) ->
      Alcotest.(check bool)
        (r.Fleet.r_pair ^ " has digest")
        (r.Fleet.r_status = "ok")
        (r.Fleet.r_digest <> ""))
    whole.Fleet.rows

let test_resume_identity () =
  (* journaled rows replay bit-identically: run once with --resume to
     populate, run again — everything resumes, nothing recomputes *)
  let cfg =
    { (test_cfg ~limit:2 ()) with Fleet.resume = true; size = 2 }
  in
  let path = Filename.concat Hfuse_profiler.Checkpoint.default_dir
               (Fleet.run_id cfg ^ ".rows") in
  if Sys.file_exists path then Sys.remove path;
  let first = Fleet.run cfg in
  Alcotest.(check int) "first run executes" 2 first.Fleet.executed;
  let second = Fleet.run cfg in
  Alcotest.(check int) "second run resumes" 2 second.Fleet.resumed;
  Alcotest.(check int) "second run computes nothing" 0 second.Fleet.executed;
  Alcotest.(check (list string)) "resumed rows identical"
    (List.map row_repr first.Fleet.rows)
    (List.map row_repr second.Fleet.rows);
  (* a fresh no-resume run agrees too: the journal didn't shape rows *)
  let clean = Fleet.run { cfg with Fleet.resume = false } in
  Alcotest.(check (list string)) "no-resume rows identical"
    (List.map row_repr first.Fleet.rows)
    (List.map row_repr clean.Fleet.rows)

let test_resume_torn_rows () =
  (* a damaged row journal — one garbled line, a tail cut mid-line —
     resumes the intact row, re-runs exactly the two damaged pairs, and
     ends with a clean run's rows *)
  let cfg = { (test_cfg ~limit:3 ()) with Fleet.resume = true } in
  let path = Filename.concat Hfuse_profiler.Checkpoint.default_dir
               (Fleet.run_id cfg ^ ".rows") in
  if Sys.file_exists path then Sys.remove path;
  let clean = Fleet.run cfg in
  Alcotest.(check int) "first run executes" 3 clean.Fleet.executed;
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  (match lines with
  | [ intact; garbled; cut ] ->
      let flip c = if c = '1' then '2' else '1' in
      let garbled =
        String.mapi (fun i c -> if i = 50 then flip c else c) garbled
      in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (intact ^ "\n" ^ garbled ^ "\n");
          output_string oc (String.sub cut 0 (String.length cut / 2)))
  | _ -> Alcotest.fail "expected three journaled rows");
  let resumed = Fleet.run cfg in
  Alcotest.(check int) "intact row replayed" 1 resumed.Fleet.resumed;
  Alcotest.(check int) "damaged rows re-executed" 2 resumed.Fleet.executed;
  Alcotest.(check int) "damaged rows counted" 2 resumed.Fleet.torn;
  Alcotest.(check (list string)) "rows match the clean run"
    (List.map row_repr clean.Fleet.rows)
    (List.map row_repr resumed.Fleet.rows);
  (* the re-executed rows were journaled on lines of their own, not
     fused onto the cut tail: a third run replays everything *)
  let again = Fleet.run cfg in
  Alcotest.(check int) "everything replays" 3 again.Fleet.resumed;
  Alcotest.(check int) "nothing re-executed" 0 again.Fleet.executed

let test_report_shape () =
  let cfg = test_cfg ~limit:2 () in
  let r = Fleet.run cfg in
  let j = Fleet.report_json cfg r in
  let module Json = Hfuse_profiler.Report.Json in
  let str k =
    match Json.member k j with Some (Json.Str s) -> s | _ -> "" in
  let int k =
    match Json.member k j with Some (Json.Int i) -> i | _ -> -1 in
  Alcotest.(check string) "bench tag" "fleet" (str "bench");
  Alcotest.(check string) "digest" (Corpus.digest ()) (str "corpus_digest");
  Alcotest.(check int) "rows_run" 2 (int "rows_run");
  (match Json.member "fault" j with
  | Some f ->
      Alcotest.(check bool) "unrecovered present" true
        (Json.member "unrecovered" f <> None)
  | None -> Alcotest.fail "missing fault section");
  (* the report round-trips through the JSON printer/parser *)
  match Json.of_string (Json.to_string j) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "report does not reparse: %s" e

let suite =
  [
    Alcotest.test_case "curated corpus" `Quick test_corpus_curated;
    Alcotest.test_case "curated replay" `Quick test_corpus_replay;
    Alcotest.test_case "corpus digest" `Quick test_corpus_digest_stable;
    Alcotest.test_case "corpus install" `Quick test_corpus_install;
    Alcotest.test_case "curated pair oracle" `Slow test_curated_pair_oracle;
    Alcotest.test_case "shard partition" `Quick test_shard_partition;
    Alcotest.test_case "run id invariants" `Quick test_run_id_invariants;
    Alcotest.test_case "rows identical across shards" `Slow
      test_rows_identical_across_shards;
    Alcotest.test_case "resume identity" `Slow test_resume_identity;
    Alcotest.test_case "resume drops torn rows" `Slow test_resume_torn_rows;
    Alcotest.test_case "report shape" `Quick test_report_shape;
  ]
