(* hfbench: end-to-end and per-layer benchmark of the fusion search.

     dune exec ./benchmark/hfbench.exe -- run                  # all three workloads
     dune exec ./benchmark/hfbench.exe -- run --workload fleet-cold --seed 3
     dune exec ./benchmark/hfbench.exe -- run --trace 1 --trace-out spans.jsonl
     dune exec ./benchmark/hfbench.exe -- run --smoke          # the @benchmark-smoke set
     dune exec ./benchmark/hfbench.exe -- compare --parent P1.json .. --change C1.json ..
     dune exec ./benchmark/hfbench.exe -- refs                 # rewrite benchmark/reference

   Every timing is taken here, around calls into the public API
   (Runner, Ops, Corpus, Client against a real [hfuse serve] child);
   nothing inside the program is instrumented.  End-to-end times are
   calibrated against a fixed loop timed beside them (Hfbench_lib), on
   one core that the run, its set-up children and its daemon share.
   The last line of a single-workload run is the JSON result object
   {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
   untraced, per-layer metrics with [--trace 1].  Run from the
   repository root with no HFUSE_* variables set. *)

open Hfuse_profiler
module L = Hfbench_lib
module Json = Report.Json
module Ops = Hfuse_serve.Ops
module Protocol = Hfuse_serve.Protocol
module Client = Hfuse_serve.Client
module Pool = Hfuse_parallel.Pool
module Spec = Kernel_corpus.Spec
module Search = Hfuse_core.Search
module Corpus = Hfuse_fleet.Corpus

external pin_to_current_cpu : unit -> int = "hfbench_pin_to_current_cpu"
external online_cpus : unit -> int = "hfbench_online_cpus"

let arch = Gpusim.Arch.gtx1080ti
let now = Unix.gettimeofday
(* Searches run on one domain, and the daemon on one worker for its one
   client: the run is pinned to one core, and with two domains peak RSS
   moved by 15% between identical runs (GC timing across domains). *)
let jobs = 1
let daemon_jobs = 1
let fleet_top_k = Some 8
let refs_dir = "benchmark/reference"

(* Set-ups per run; [setup_s] is their median. *)
let setups_per_run = 3

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("hfbench: " ^ s);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Files, processes, the machine                                        *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let read_json path =
  match Json.of_string (read_file path) with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let md5 s = Digest.to_hex (Digest.string s)

(* The program's own copy of itself and of the CLI, resolved before
   anything changes directory. *)
let self_exe =
  if Filename.is_relative Sys.executable_name then
    Filename.concat (Sys.getcwd ()) Sys.executable_name
  else Sys.executable_name

let cli_exe =
  Filename.concat (Filename.dirname self_exe)
    (Filename.concat Filename.parent_dir_name "bin/hfuse_cli.exe")

(* VmHWM of a process, from /proc: the peak resident set. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match
    List.find_map
      (fun l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] ->
            Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> None)
      (String.split_on_char '\n' (read_file path))
  with
  | Some mb -> mb
  | None -> fail "no VmHWM in %s" path
  | exception Sys_error e -> fail "%s" e

let git_commit () =
  let head = ".git/HEAD" in
  if not (Sys.file_exists head) then "unknown"
  else
    let h = String.trim (read_file head) in
    match String.split_on_char ' ' h with
    | [ "ref:"; r ] ->
        let loose = Filename.concat ".git" r in
        if Sys.file_exists loose then String.trim (read_file loose)
        else
          let packed = ".git/packed-refs" in
          (if Sys.file_exists packed then
             List.find_map
               (fun l ->
                 match String.split_on_char ' ' l with
                 | [ sha; name ] when name = r -> Some sha
                 | _ -> None)
               (String.split_on_char '\n' (read_file packed))
           else None)
          |> Option.value ~default:"unknown"
    | _ -> h

let pinned_cpu = ref (-1)

let machine () =
  let t = Unix.gmtime (now ()) in
  Json.Obj
    [
      ("nproc", Json.Int (online_cpus ()));
      ("pinned_cpu", Json.Int !pinned_cpu);
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str (git_commit ()));
      ( "date",
        Json.Str
          (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.tm_year + 1900)
             (t.tm_mon + 1) t.tm_mday t.tm_hour t.tm_min t.tm_sec) );
    ]

(* Child processes (set-up children, daemons), stopped and reaped on
   every way out of the run. *)
let children : int list ref = ref []

let stop_child pid =
  if List.mem pid !children then begin
    children := List.filter (( <> ) pid) !children;
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  end

let stop_children () = List.iter stop_child !children

(* Scratch space of one run, inside the checkout; removed at exit. *)
let work_dir =
  lazy
    (let d = Printf.sprintf ".hfbench/run-%d" (Unix.getpid ()) in
     Profile_cache.mkdir_p d;
     at_exit (fun () ->
         stop_children ();
         rm_rf d;
         (* the parent goes too once no other run is using it *)
         try Unix.rmdir ".hfbench" with Unix.Unix_error _ -> ());
     d)

let () =
  at_exit stop_children;
  (* a run stopped from outside still stops its children and removes
     its work directory *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ]

let root_counter = ref 0

(** A fresh, empty cache root. *)
let fresh_root () =
  incr root_counter;
  Filename.concat (Lazy.force work_dir) (Printf.sprintf "cache-%d" !root_counter)

let settings_at root = Settings.resolve ~cache_dir:(Some root) ~fault:None ()

(* Run this program as a set-up child and wait for it; its output goes
   to stderr, so the result line stays last on stdout. *)
let run_child args =
  let pid =
    Unix.create_process self_exe
      (Array.of_list (self_exe :: args))
      Unix.stdin Unix.stderr Unix.stderr
  in
  children := pid :: !children;
  let _, status = Unix.waitpid [] pid in
  children := List.filter (( <> ) pid) !children;
  if status <> Unix.WEXITED 0 then fail "set-up child %s failed" (String.concat " " args)

(* ------------------------------------------------------------------ *)
(* Calibrated timing                                                    *)
(* ------------------------------------------------------------------ *)

(* One timed phase: pieces of work, with a calibration sample before
   the first and then whenever [L.cal_every_s] of work has passed
   since the last one, and a last sample at the end.  [busy] is the
   work's running total in seconds, rescaled by the latest sample. *)
type 'a recorder = {
  mutable events : 'a L.timeline list;
  mutable since_cal : float;
  mutable last_cal : float;
  mutable busy : float;
}

let recorder () =
  { events = []; since_cal = infinity; last_cal = L.cal_reference_ms; busy = 0.0 }

let cal_sample r =
  let t = now () in
  ignore (Sys.opaque_identity (L.calibration_work ()));
  let ms = (now () -. t) *. 1000.0 in
  r.events <- L.Cal ms :: r.events;
  r.since_cal <- 0.0;
  r.last_cal <- ms

(** Time [f] as one piece of work tagged [tag]. *)
let time_work r tag f =
  if r.since_cal >= L.cal_every_s then cal_sample r;
  let t = now () in
  let v = f () in
  let d = now () -. t in
  r.events <- L.Work (tag, d) :: r.events;
  r.since_cal <- r.since_cal +. d;
  r.busy <- r.busy +. (d *. L.cal_reference_ms /. r.last_cal);
  v

(** Close the phase: each piece's tag, wall seconds and calibration
    factor, in order, and the calibration samples (ms). *)
let finish r =
  cal_sample r;
  let tl = List.rev r.events in
  ( List.map (fun ((tag, d), k) -> (tag, d, k)) (L.calibrate tl),
    List.filter_map (function L.Cal c -> Some c | L.Work _ -> None) tl )

(** [n] set-ups, each between its own calibration samples; [before i]
    runs untimed ahead of set-up [i].  Returns the calibrated and wall
    seconds of each, and the last set-up's value. *)
let setups ~n ?(before = fun _ -> ()) (f : int -> 'a) : float list * float list * 'a =
  let r = recorder () in
  let last = ref None in
  for i = 1 to n do
    before i;
    cal_sample r;
    last := Some (time_work r i (fun () -> f i))
  done;
  let ws, _ = finish r in
  ( List.map (fun (_, d, k) -> d *. k) ws,
    List.map (fun (_, d, _) -> d) ws,
    Option.get !last )

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

(* Kept in memory, written at exit.  [op] groups the spans of one timed
   operation (0 for the traced passes); an op's root span has parent 0
   and its layer calls are its children.  [derived] marks children
   synthesised from a search's own stats (their durations are measured
   by the search; their placement inside the parent is not). *)
type span = {
  id : int;
  parent : int;
  op : int;
  name : string;
  t0 : float;
  t1 : float;
  derived : bool;
}

let tracing = ref false
let spans : span list ref = ref []
let span_mutex = Mutex.create ()
let next_span = ref 0

let locked f =
  Mutex.lock span_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock span_mutex) f

let fresh_span_id () =
  locked (fun () ->
      incr next_span;
      !next_span)

let push_span s = locked (fun () -> spans := s :: !spans)

let span_id ?(parent = 0) ~op name (f : int -> 'a) : 'a =
  if not !tracing then f 0
  else
    let id = fresh_span_id () in
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        push_span { id; parent; op; name; t0; t1 = now (); derived = false })
      (fun () -> f id)

let span ?parent ~op name f = span_id ?parent ~op name (fun _ -> f ())

let derived_span ~parent ~op name ~t0 ~dur =
  if !tracing then
    push_span
      { id = fresh_span_id (); parent; op; name; t0; t1 = t0 +. dur; derived = true }

let next_op = ref 0

let fresh_op () =
  locked (fun () ->
      incr next_op;
      !next_op)

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_line
           (Json.Obj
              [
                ("id", Json.Int s.id);
                ("parent", Json.Int s.parent);
                ("op", Json.Int s.op);
                ("name", Json.Str s.name);
                ("start", Json.Float s.t0);
                ("end", Json.Float s.t1);
                ("derived", Json.Bool s.derived);
              ]));
      output_char oc '\n')
    (List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* References                                                           *)
(* ------------------------------------------------------------------ *)

(* paper_1080Ti.json: per paper pair, its representative sizes, the MD5
   of the exhaustive [Ops.search] output at those sizes and the decoded
   native/best numbers.  fleet_rows.json: every fleet row at size 1,
   top-k 8 (the committed output of [bench -- fleet --top-k 8 --json]). *)
type reference = {
  status : string;  (** "ok" | "rejected" *)
  digest : string;
  native_ms : float;
  best_ms : float;
  best : (int * int * int option) option;  (** d1, d2, r0 (paper only) *)
  sizes : (int * int) option;  (** paper only *)
}

let str_field k j = match Json.member k j with Some (Json.Str s) -> s | _ -> ""
let float_field k j = Option.value (L.num_field k j) ~default:nan

let int_opt_field k j =
  match Json.member k j with Some (Json.Int i) -> Some i | _ -> None

let load_refs file ~list ~of_entry =
  let path = Filename.concat refs_dir file in
  if not (Sys.file_exists path) then fail "missing reference %s" path;
  match Json.member list (read_json path) with
  | Some (Json.List es) ->
      let tbl = Hashtbl.create 1200 in
      List.iter (fun e -> Hashtbl.replace tbl (str_field "pair" e) (of_entry e)) es;
      tbl
  | _ -> fail "%s: no %s list" path list

let both a b = match (a, b) with Some x, Some y -> Some (x, y) | _ -> None

let paper_refs =
  lazy
    (load_refs "paper_1080Ti.json" ~list:"pairs" ~of_entry:(fun e ->
         {
           status = "ok";
           digest = str_field "md5" e;
           native_ms = float_field "native_ms" e;
           best_ms = float_field "best_ms" e;
           best =
             Option.map
               (fun (d1, d2) -> (d1, d2, int_opt_field "best_r0" e))
               (both (int_opt_field "best_d1" e) (int_opt_field "best_d2" e));
           sizes = both (int_opt_field "size1" e) (int_opt_field "size2" e);
         }))

let fleet_refs =
  lazy
    (load_refs "fleet_rows.json" ~list:"rows" ~of_entry:(fun e ->
         {
           status = str_field "status" e;
           digest = str_field "digest" e;
           native_ms = float_field "native_ms" e;
           best_ms = float_field "best_ms" e;
           best = None;
           sizes = None;
         }))

let ref_of tbl pair =
  match Hashtbl.find_opt (Lazy.force tbl) (L.pair_name pair) with
  | Some r -> r
  | None -> fail "no reference for %s" (L.pair_name pair)

(* Printed search outputs carry four decimals, so decoded references
   compare at that precision. *)
let same_ms a b = Printf.sprintf "%.4f" a = Printf.sprintf "%.4f" b

(* ------------------------------------------------------------------ *)
(* Run-wide tallies                                                     *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : string list;
}

let tally = { attempted = 0; failed = 0; mismatches = [] }
let tally_mutex = Mutex.create ()

(** Count one checked operation; [Error why] is a failure. *)
let note (r : (unit, string) result) =
  Mutex.lock tally_mutex;
  tally.attempted <- tally.attempted + 1;
  (match r with
  | Ok () -> ()
  | Error why ->
      tally.failed <- tally.failed + 1;
      if List.length tally.mismatches < 20 then
        tally.mismatches <- why :: tally.mismatches);
  Mutex.unlock tally_mutex

let expect cond fmt =
  Printf.ksprintf (fun why -> if cond then Ok () else Error why) fmt

(* ------------------------------------------------------------------ *)
(* One search, untraced and traced                                      *)
(* ------------------------------------------------------------------ *)

let spec_of name =
  match Kernel_corpus.Registry.find name with
  | Some s -> s
  | None -> fail "unknown kernel %s" name

(* The representative-size probe, which every one-shot [hfuse search]
   without explicit sizes runs.  Runs measure it only in traced runs
   (profiler.rep_sizes_ms); their searches use the sizes the paper
   reference records, which the traced runs check against it. *)
let sizes_memo = lazy (Experiment.representative_sizes arch)

(* Paper searches run at representative sizes; fleet and daemon
   searches pin size 1 (as [bench -- fleet] does). *)
type family = Paper | Fleet

let family_of (w : L.workload) = match w with L.Paper_warm -> Paper | _ -> Fleet

let sizes_for ?probe fam pair =
  match (fam, probe) with
  | Fleet, _ -> (1, 1)
  | Paper, Some sz ->
      (Experiment.size_of sz (spec_of (fst pair)), Experiment.size_of sz (spec_of (snd pair)))
  | Paper, None -> (
      match (ref_of paper_refs pair).sizes with
      | Some s -> s
      | None -> fail "no sizes in the reference of %s" (L.pair_name pair))

let search_params ?probe fam ((k1, k2) as pair) : Ops.search_params =
  let size1, size2 = sizes_for ?probe fam pair in
  {
    Ops.s_arch = arch;
    s_k1 = spec_of k1;
    s_k2 = spec_of k2;
    s_size1 = Some size1;
    s_size2 = Some size2;
    s_emit = false;
    s_jobs = jobs;
    s_top_k = (match fam with Paper -> None | Fleet -> fleet_top_k);
    s_repair = false;
  }

let refs_for = function Paper -> paper_refs | Fleet -> fleet_refs

(** Check a search's printed output (or its rejection) against the
    committed reference. *)
let check_output fam pair (r : (string, string) result) =
  let rf = ref_of (refs_for fam) pair in
  match r with
  | Ok out ->
      expect
        (rf.status = "ok" && md5 out = rf.digest)
        "%s: output digest %s, reference %s %s" (L.pair_name pair) (md5 out)
        rf.status rf.digest
  | Error why ->
      expect (rf.status = "rejected") "%s: %s, reference %s" (L.pair_name pair)
        why rf.status

let is_rejection msg =
  let sub = "No_valid_partition" in
  let n = String.length msg and m = String.length sub in
  let rec has i = i + m <= n && (String.sub msg i m = sub || has (i + 1)) in
  has 0

(* The untraced search op: the verb engine, exactly as the CLI runs it. *)
let ops_search fam ~settings pair =
  match Ops.search ~settings (search_params fam pair) with
  | o -> Ok o.Ops.output
  | exception Search.No_valid_partition _ -> Error "rejected"

(* The in-memory trace tier's occupancy when the traced ops end (the
   layer passes clear it). *)
let trace_mem_bytes = ref 0

(* Per-layer counters the traced searches accumulate. *)
type layers = {
  mutable searches : int;
  mutable profiled : int;
  mutable cache_hits : int;
  mutable cache_stores : int;
  mutable traced : int;
  mutable trace_hits : int;
  mutable trace_merged : int;
}

let layers =
  {
    searches = 0;
    profiled = 0;
    cache_hits = 0;
    cache_stores = 0;
    traced = 0;
    trace_hits = 0;
    trace_merged = 0;
  }

(* The traced search op: the same work as [Ops.search] minus output
   formatting, split at the Runner calls it makes, with the search's
   profiling and trace walls as derived children.  Returns its check
   against the reference's decoded numbers. *)
let traced_search fam ~settings ~op ~parent pair =
  let p = search_params fam pair in
  let mem = Gpusim.Memory.create () in
  let c1, c2 =
    span ~parent ~op "kernels.configure" (fun () ->
        let c1 = Runner.configure mem p.s_k1 ~size:(Option.get p.s_size1) in
        (c1, Runner.configure mem p.s_k2 ~size:(Option.get p.s_size2)))
  in
  let native =
    span ~parent ~op "profiler.native" (fun () ->
        (Runner.native ~settings arch c1 c2).Gpusim.Timing.time_ms)
  in
  let stats = Runner.fresh_search_stats () in
  let cache = Settings.cache settings in
  let t0 = now () in
  let result =
    span_id ~parent ~op "profiler.search" (fun id ->
        Fun.protect
          ~finally:(fun () ->
            derived_span ~parent:id ~op "profiler.search.trace" ~t0
              ~dur:stats.trace_wall_s;
            derived_span ~parent:id ~op "profiler.search.profile"
              ~t0:(t0 +. stats.trace_wall_s)
              ~dur:(stats.profile_wall_s -. stats.trace_wall_s))
          (fun () ->
            match
              Runner.search ~jobs ~settings ~stats ~cache
                ?top_k:p.s_top_k arch c1 c2
            with
            | sr -> Ok sr
            | exception Search.No_valid_partition _ -> Error "rejected"))
  in
  (* a traced run's untraced loop runs this op too, uncounted *)
  if !tracing then
    locked (fun () ->
        layers.searches <- layers.searches + 1;
        layers.profiled <- layers.profiled + stats.profiled;
        layers.cache_hits <- layers.cache_hits + stats.cache_hits;
        layers.cache_stores <- layers.cache_stores + Profile_cache.stores cache;
        layers.traced <- layers.traced + stats.traced;
        layers.trace_hits <- layers.trace_hits + stats.trace_hits;
        layers.trace_merged <- layers.trace_merged + stats.trace_merged);
  let rf = ref_of (refs_for fam) pair in
  let name = L.pair_name pair in
  match result with
  | Error why ->
      expect (rf.status = "rejected") "%s: %s, reference %s" name why rf.status
  | Ok sr ->
      let b = sr.Search.best in
      let best_ok =
        match rf.best with
        | None -> true
        | Some (d1, d2, r0) ->
            b.fused.d1 = d1 && b.fused.d2 = d2 && b.config.reg_bound = r0
      in
      expect
        (rf.status = "ok" && same_ms native rf.native_ms
        && same_ms b.time rf.best_ms && best_ok)
        "%s: native %.4f best %d/%d %.4f, reference %s native %.4f best %.4f"
        name native b.fused.d1 b.fused.d2 b.time rf.status rf.native_ms
        rf.best_ms

(* ------------------------------------------------------------------ *)
(* Compile and simulator passes (traced runs)                          *)
(* ------------------------------------------------------------------ *)

type passes = {
  mutable pairs : int;
  mutable partitions : int;
  mutable generated : int;
  mutable rejected : int;
  mutable instrs : int;
  mutable cycles : int;
  mutable stepped : int;
  mutable skipped : int;
  mutable record_s : float;
  mutable replay_s : float;
}

let passes =
  {
    pairs = 0;
    partitions = 0;
    generated = 0;
    rejected = 0;
    instrs = 0;
    cycles = 0;
    stepped = 0;
    skipped = 0;
    record_s = 0.0;
    replay_s = 0.0;
  }

(* One pair through each compiler layer the search uses, then its
   verified candidates through the simulator in a scratch root with the
   in-memory tiers cleared, so every trace is really recorded. *)
let layer_passes fam pair =
  let p = search_params fam pair in
  let limits = Gpusim.Arch.sm_limits arch in
  let mem = Gpusim.Memory.create () in
  let c1 = Runner.configure mem p.s_k1 ~size:(Option.get p.s_size1) in
  let c2 = Runner.configure mem p.s_k2 ~size:(Option.get p.s_size2) in
  span_id ~op:0 "pass.compile" (fun parent ->
      ignore
        (span ~parent ~op:0 "cuda.parse" (fun () -> (Spec.parse p.s_k1, Spec.parse p.s_k2)));
      span ~parent ~op:0 "frontend.normalize" (fun () ->
          List.iter
            (fun (c : Runner.configured) ->
              ignore
                (Hfuse_frontend.Inline.normalize_kernel c.info.prog c.info.fn))
            [ c1; c2 ]);
      let parts =
        span ~parent ~op:0 "core.enumerate" (fun () ->
            Hfuse_core.Partition.enumerate
              ~max_threads:limits.Hfuse_core.Occupancy.max_threads_per_block
              c1.info c2.info ~d0:(Runner.d0_for c1 c2))
      in
      let fused =
        span ~parent ~op:0 "core.generate" (fun () ->
            List.filter_map
              (fun ({ Hfuse_core.Partition.d1; d2 } as part) ->
                match
                  Hfuse_core.Hfuse.generate ~check:false ~limits
                    (Hfuse_core.Kernel_info.with_block_dim c1.info d1)
                    (Hfuse_core.Kernel_info.with_block_dim c2.info d2)
                with
                | f -> Some (part, f)
                | exception Hfuse_core.Fuse_common.Fusion_error _ -> None)
              parts)
      in
      let verified =
        span ~parent ~op:0 "analysis.verify" (fun () ->
            List.filter
              (fun (_, f) ->
                Hfuse_analysis.Diag.is_clean (Hfuse_core.Hfuse.verify ~limits f))
              fused)
      in
      span ~parent ~op:0 "core.emit" (fun () ->
          List.iter (fun (_, f) -> ignore (Hfuse_core.Hfuse.to_source f)) fused);
      span ~parent ~op:0 "costmodel.rank" (fun () ->
          let inputs = Hfuse_costmodel.of_pair ~limits ~arch c1.info c2.info in
          ignore
            (Hfuse_costmodel.rank inputs
               (List.map
                  (fun (part, f) -> (f, { Search.partition = part; reg_bound = None }))
                  verified)));
      passes.pairs <- passes.pairs + 1;
      passes.partitions <- passes.partitions + List.length parts;
      passes.generated <- passes.generated + List.length fused;
      passes.rejected <- passes.rejected + List.length fused - List.length verified;
      Runner.clear_cache ();
      let settings = settings_at (fresh_root ()) in
      span_id ~parent ~op:0 "pass.simulate" (fun parent ->
          List.iter
            (fun (_, f) ->
              let t0 = now () in
              let traces =
                span ~parent ~op:0 "gpusim.record" (fun () ->
                    Runner.hfuse_traces ~settings ~arch:arch.Gpusim.Arch.name c1
                      c2 f)
              in
              let t1 = now () in
              let r, es =
                span ~parent ~op:0 "gpusim.replay" (fun () ->
                    Gpusim.Timing.run_with_stats arch
                      [ Runner.hfuse_spec f ~reg_bound:None ~traces ])
              in
              passes.record_s <- passes.record_s +. (t1 -. t0);
              passes.replay_s <- passes.replay_s +. (now () -. t1);
              passes.instrs <-
                passes.instrs
                + Array.fold_left
                    (fun acc b -> acc + Gpusim.Trace.block_instructions b)
                    0 traces;
              passes.cycles <- passes.cycles + r.Gpusim.Timing.elapsed_cycles;
              passes.stepped <- passes.stepped + es.Gpusim.Timing.cycles_stepped;
              passes.skipped <- passes.skipped + es.Gpusim.Timing.cycles_skipped)
            verified))

(* The representative-size probe, as a top-level span, checked against
   the sizes the paper reference records. *)
let probe_pass () =
  let sz = span ~op:0 "profiler.rep_sizes" (fun () -> Lazy.force sizes_memo) in
  List.iter
    (fun ((s1 : Spec.t), (s2 : Spec.t)) ->
      let pair = (s1.name, s2.name) in
      let probed = sizes_for ~probe:sz Paper pair in
      note
        (expect
           ((ref_of paper_refs pair).sizes = Some probed)
           "%s: probe sizes %d/%d differ from the reference" (L.pair_name pair)
           (fst probed) (snd probed)))
    Kernel_corpus.Registry.all_pairs

(* ------------------------------------------------------------------ *)
(* Timed loops                                                          *)
(* ------------------------------------------------------------------ *)

(* [s_ms] is an op's wall time, [s_cms] its calibrated time. *)
type sample = { s_verb : L.verb; s_pair : string * string; s_ms : float; s_cms : float }

type loop = {
  samples : sample list;
  cals : float list;  (** calibration samples (ms) *)
}

let loop_of r =
  let ws, cals = finish r in
  {
    samples =
      List.map
        (fun ((verb, pair), d, k) ->
          { s_verb = verb; s_pair = pair; s_ms = d *. 1000.0; s_cms = d *. 1000.0 *. k })
        ws;
    cals;
  }

(** Run [op] over each pass plan for about [seconds] of calibrated op
    time, in whole passes (at least one, exactly [passes] when given),
    so every seed and every run does whole pair sets, and a slow spell
    of the host does not change how many.  [prepare] runs before each
    op, outside its time; [op] returns the op's check, noted after it. *)
let run_passes ?passes ~seconds ~plan ~prepare ~op () : loop * int =
  let r = recorder () in
  let rec go pass =
    List.iter
      (fun (o : L.op) ->
        prepare ();
        note (time_work r (o.verb, L.op_pair o) (fun () -> op o)))
      (plan ~pass);
    let n = pass + 1 in
    match passes with
    | Some k when n < k -> go n
    | Some _ -> n
    | None ->
        (* stop at the pass boundary nearest to [seconds] *)
        if r.busy +. (r.busy /. float_of_int n /. 2.0) < seconds then go n else n
  in
  let n = go 0 in
  (loop_of r, n)

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type options = {
  workload : L.workload;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  json_out : string option;
  trace_out : string option;
}

type outcome = {
  setup_s : float list;  (** calibrated, one per set-up *)
  setup_wall_s : float list;
  untraced : loop;
  traced : loop option;
  rss_mb : float;
  extra : (string * float * string) list;  (** workload-specific extras *)
  parallel : Pool.tally;  (** pool failures/retries over the run *)
}

let plan_of (o : options) ~pass = L.pass_plan o.workload ~smoke:o.smoke ~seed:o.seed ~pass
let n_setups (o : options) = if o.smoke then 1 else setups_per_run

(* A timed op: a root span per op, with the op's layer calls under it. *)
let as_op name f =
  let op = fresh_op () in
  span_id ~op name (fun parent -> f ~op ~parent)

let distinct_pairs (l : loop) =
  List.sort_uniq compare (List.map (fun s -> s.s_pair) l.samples)

(* What a set-up child does, in a fresh process as a one-shot run
   would: run the representative-size probe (paper-warm) or install the
   fleet corpus (fleet-cold). *)
let setup_cmd (w : L.workload) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (match w with
  | L.Paper_warm -> probe_pass ()
  | L.Fleet_cold -> Corpus.install ()
  | L.Daemon_mixed -> fail "daemon-mixed sets up in-process");
  if tally.failed > 0 then begin
    List.iter prerr_endline (List.rev tally.mismatches);
    exit 1
  end

(* Fill a cache root with cold searches of the paper set: the earlier
   run that left the disk warm. *)
let fill_cmd ~root ~smoke =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let settings = settings_at root in
  List.iter
    (fun pair -> note (check_output Paper pair (ops_search Paper ~settings pair)))
    (L.paper_set ~smoke);
  if tally.failed > 0 then begin
    List.iter prerr_endline (List.rev tally.mismatches);
    exit 1
  end

(* paper-warm and fleet-cold: in-process searches, whole passes of the
   workload's pair set. *)
let in_process (o : options) : outcome =
  let fam = family_of o.workload in
  let pool_before = Pool.tally () in
  (* untimed preparation: the warm root, filled in a child so that this
     process's peak RSS is the warm searches' *)
  let warm_root = fresh_root () in
  let fill_s =
    if fam = Fleet then []
    else begin
      let t = now () in
      run_child
        ([ "fill"; "--root"; warm_root ] @ if o.smoke then [ "--smoke" ] else []);
      [ ("prep.fill_s", now () -. t, "s") ]
    end
  in
  let setup_s, setup_wall_s, () =
    setups ~n:(n_setups o) (fun _ -> run_child [ "setup"; L.workload_name o.workload ])
  in
  (* untimed: this process's own copy of what the set-up made *)
  if fam = Fleet then Corpus.install ();
  (* every op starts with empty memory tiers and a collected heap, as a
     fresh CLI process would; a cold op also gets an empty root, so its
     cost does not depend on which pairs ran before it.  Without the
     collection, the major GC work an op inherits from the ones before
     it moved fleet-cold's throughput by 8% between runs, 4% with it. *)
  let settings = ref (settings_at warm_root) and cold_root = ref None in
  let prepare () =
    Runner.clear_cache ();
    Gc.full_major ();
    if fam = Fleet then begin
      Option.iter rm_rf !cold_root;
      let root = fresh_root () in
      cold_root := Some root;
      settings := settings_at root
    end
  in
  (* A traced run times the Runner split in both of its loops, first
     with tracing off, then on, so trace.overhead_pct compares one call
     with itself; an untraced run times [Ops.search] as the CLI runs it. *)
  let op (x : L.op) =
    let pair = L.op_pair x in
    if o.trace then
      as_op "op.search" (fun ~op ~parent ->
          traced_search fam ~settings:!settings ~op ~parent pair)
    else check_output fam pair (ops_search fam ~settings:!settings pair)
  in
  let untraced, n_passes =
    run_passes ~seconds:o.seconds ~plan:(plan_of o) ~prepare ~op ()
  in
  let rss_mb = peak_rss_mb "self" in
  let traced =
    if not o.trace then None
    else begin
      tracing := true;
      let l, _ =
        run_passes ~passes:n_passes ~seconds:0.0 ~plan:(plan_of o) ~prepare ~op ()
      in
      trace_mem_bytes := Trace_store.mem_bytes ();
      List.iter (layer_passes fam) (distinct_pairs l);
      probe_pass ();
      Some l
    end
  in
  {
    setup_s;
    setup_wall_s;
    untraced;
    traced;
    rss_mb;
    extra = fill_s;
    parallel = Pool.diff ~before:pool_before ~after:(Pool.tally ());
  }

(* -- daemon-mixed ------------------------------------------------------ *)

type daemon = { pid : int; socket : string }

(* the daemon must not inherit chaos or cache settings from the caller *)
let child_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"HFUSE_" kv))
       (Array.to_list (Unix.environment ())))

let ping socket =
  Client.call ~socket
    {
      Protocol.id = "ping";
      priority = 0;
      settings = Protocol.no_overrides;
      verb = Protocol.Ping;
    }

let start_daemon () : daemon =
  if not (Sys.file_exists cli_exe) then fail "daemon binary %s not built" cli_exe;
  let dir = Lazy.force work_dir in
  incr root_counter;
  let socket = Filename.concat dir (Printf.sprintf "d%d.sock" !root_counter) in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process_env cli_exe
      [| cli_exe; "serve"; "--socket"; socket; "-j"; string_of_int daemon_jobs |]
      (child_env ()) null log log
  in
  Unix.close null;
  Unix.close log;
  children := pid :: !children;
  let deadline = now () +. 60.0 in
  let rec wait () =
    match ping socket with
    | Ok (Protocol.Result _) -> ()
    | _ when now () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | _ -> fail "daemon did not answer within 60 s"
  in
  wait ();
  { pid; socket }

let kernel_src (c : Runner.configured) : Ops.kernel_src =
  {
    Ops.ks_path = c.spec.Spec.name ^ ".cu";
    ks_source = c.spec.Spec.source;
    ks_block = Hfuse_core.Kernel_info.threads_per_block c.info;
    ks_smem = c.inst.Kernel_corpus.Workload.smem_dynamic;
    ks_regs = Some c.spec.Spec.regs;
  }

let request_params (x : L.op) : Ops.request_params =
  match x.verb with
  | L.Search -> Ops.Search (search_params Fleet (L.op_pair x))
  | L.Check | L.Fuse ->
      let mem = Gpusim.Memory.create () in
      let c1 = Runner.configure mem (spec_of x.k1) ~size:1 in
      let c2 = Runner.configure mem (spec_of x.k2) ~size:1 in
      let grid =
        max c1.inst.Kernel_corpus.Workload.grid c2.inst.Kernel_corpus.Workload.grid
      in
      if x.verb = L.Check then
        Ops.Check
          {
            c_arch = arch;
            c_k1 = kernel_src c1;
            c_k2 = Some (kernel_src c2);
            c_grid = grid;
            c_repair = false;
          }
      else Ops.Fuse { f_k1 = kernel_src c1; f_k2 = kernel_src c2; f_grid = grid }

type answer = Answer of int * string | Refused of string * string

let call (d : daemon) ~settings ~id params : answer =
  let req =
    {
      Protocol.id;
      priority = 0;
      settings = Protocol.spec_of_settings settings;
      verb = Protocol.Work params;
    }
  in
  match Client.call ~socket:d.socket req with
  | Ok (Protocol.Result { exit_code; output; _ }) -> Answer (exit_code, output)
  | Ok (Protocol.Failure { code; message; _ }) -> Refused (code, message)
  | Error e -> Refused ("transport", e)

(* Compile verbs are checked against the same request run in-process
   (the daemon's byte-identity contract); searches against the fleet
   reference. *)
let check_answer (x : L.op) ~compile_ref (a : answer) =
  let pair = L.op_pair x in
  match (x.verb, a) with
  | L.Search, Answer (0, out) -> check_output Fleet pair (Ok out)
  | L.Search, Refused (_, msg) when is_rejection msg ->
      check_output Fleet pair (Error "rejected")
  | (L.Check | L.Fuse), Answer (code, out) ->
      let rcode, rout = compile_ref x in
      expect (code = rcode && out = rout) "%s %s: response differs from in-process run"
        (L.verb_name x.verb) (L.pair_name pair)
  | _, Answer (code, _) ->
      Error (Printf.sprintf "%s %s: exit code %d" (L.verb_name x.verb)
               (L.pair_name pair) code)
  | _, Refused (code, msg) ->
      Error (Printf.sprintf "%s %s: %s (%s)" (L.verb_name x.verb)
               (L.pair_name pair) code msg)

let overloaded = ref 0

(** One measured daemon lifetime: [n] set-ups (start a daemon on a
    fresh root, warm its hot set; each but the last stopped before the
    next), one closed-loop pass from one client, stop.  Returns the
    set-up times, the loop, the daemon's peak RSS and its pool tally. *)
let daemon_session (o : options) ~n ~compile_ref ~traced =
  let params_memo = Hashtbl.create 64 in
  let params x =
    match Hashtbl.find_opt params_memo x with
    | Some p -> p
    | None ->
        let p = request_params x in
        Hashtbl.replace params_memo x p;
        p
  in
  (* requests are built outside any timing *)
  let plan = plan_of o ~pass:0 in
  List.iter (fun x -> ignore (params x)) plan;
  let live = ref None in
  let setup_s, setup_wall_s, (d, settings) =
    setups ~n
      ~before:(fun _ -> Option.iter (fun d -> stop_child d.pid) !live)
      (fun i ->
        let settings = settings_at (fresh_root ()) in
        (* the daemon installs the fleet corpus before it answers a ping *)
        let d = start_daemon () in
        live := Some d;
        List.iteri
          (fun n (k1, k2) ->
            let x = { L.verb = L.Search; k1; k2 } in
            let id = Printf.sprintf "warm%d-%d" i n in
            note (check_answer x ~compile_ref (call d ~settings ~id (params x))))
          (L.hot_set ~smoke:o.smoke);
        (d, settings))
  in
  let r = recorder () in
  List.iteri
    (fun n (x : L.op) ->
      let id = Printf.sprintf "c%d" n in
      let a =
        time_work r (x.verb, L.op_pair x) (fun () ->
            if traced then
              as_op ("op." ^ L.verb_name x.verb) (fun ~op ~parent ->
                  span ~parent ~op "serve.call" (fun () -> call d ~settings ~id (params x)))
            else call d ~settings ~id (params x))
      in
      note (check_answer x ~compile_ref a);
      match a with Refused ("overloaded", _) -> incr overloaded | _ -> ())
    plan;
  let l = loop_of r in
  let pool =
    match
      Client.call ~socket:d.socket
        {
          Protocol.id = "stats";
          priority = 0;
          settings = Protocol.no_overrides;
          verb = Protocol.Stats;
        }
    with
    | Ok (Protocol.Result { telemetry; _ }) -> (
        match Json.member "pool" telemetry with
        | Some p ->
            let g k = Option.fold ~none:0 ~some:int_of_float (L.num_field k p) in
            { Pool.failures = g "failures"; retries = g "retries"; recovered = g "recovered" }
        | None -> fail "daemon stats without a pool section")
    | _ -> fail "daemon stats request failed"
  in
  let rss = peak_rss_mb (string_of_int d.pid) in
  stop_child d.pid;
  (setup_s, setup_wall_s, l, rss, pool)

let add_tally (a : Pool.tally) (b : Pool.tally) =
  {
    Pool.failures = a.failures + b.failures;
    retries = a.retries + b.retries;
    recovered = a.recovered + b.recovered;
  }

let daemon_mixed (o : options) : outcome =
  (* the in-process engine's answers to the compile requests, computed
     before anything is timed; read-only afterwards *)
  Corpus.install ();
  let compile_refs = Hashtbl.create 64 in
  List.iter
    (fun x ->
      if x.L.verb <> L.Search then
        let oc = Ops.run (request_params x) in
        Hashtbl.replace compile_refs x (oc.Ops.exit_code, oc.Ops.output))
    (plan_of o ~pass:0);
  let compile_ref = Hashtbl.find compile_refs in
  let pool_before = Pool.tally () in
  let setup_s, setup_wall_s, untraced, rss_mb, dpool =
    daemon_session o ~n:(n_setups o) ~compile_ref ~traced:false
  in
  let traced, extra, dpool =
    if not o.trace then (None, [], dpool)
    else begin
      tracing := true;
      let _, _, l, _, dpool2 = daemon_session o ~n:1 ~compile_ref ~traced:true in
      (* the same requests in-process, on a root warmed the same way:
         round trip minus in-process time is queueing plus protocol *)
      let settings = settings_at (fresh_root ()) in
      List.iter
        (fun pair -> note (check_output Fleet pair (ops_search Fleet ~settings pair)))
        (L.hot_set ~smoke:o.smoke);
      let inproc =
        List.map
          (fun (s : sample) ->
            let x = { L.verb = s.s_verb; k1 = fst s.s_pair; k2 = snd s.s_pair } in
            let t = now () in
            note
              (match x.verb with
              | L.Search ->
                  as_op "inprocess.search" (fun ~op ~parent ->
                      traced_search Fleet ~settings ~op ~parent s.s_pair)
              | L.Check | L.Fuse ->
                  let oc =
                    span ~op:0 "inprocess.compile" (fun () -> Ops.run (request_params x))
                  in
                  expect
                    ((oc.Ops.exit_code, oc.Ops.output) = compile_ref x)
                    "%s %s: in-process run differs" (L.verb_name x.verb)
                    (L.pair_name s.s_pair));
            s.s_ms -. ((now () -. t) *. 1000.0))
          l.samples
      in
      trace_mem_bytes := Trace_store.mem_bytes ();
      List.iter (layer_passes Fleet) (distinct_pairs l);
      probe_pass ();
      let med xs = Option.value (L.median xs) ~default:nan in
      ( Some l,
        [
          ("serve.roundtrip_ms", med (List.map (fun s -> s.s_ms) l.samples), "ms");
          ("serve.overhead_ms", med inproc, "ms");
          ("serve.overloaded", float_of_int !overloaded, "count");
        ],
        add_tally dpool dpool2 )
    end
  in
  {
    setup_s;
    setup_wall_s;
    untraced;
    traced;
    rss_mb;
    extra;
    parallel =
      add_tally dpool (Pool.diff ~before:pool_before ~after:(Pool.tally ()));
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let med xs = Option.value (L.median xs) ~default:nan
let sum = List.fold_left ( +. ) 0.0

let ms_of ?(calibrated = true) verbs (l : loop) =
  List.filter_map
    (fun s ->
      if List.mem s.s_verb verbs then Some (if calibrated then s.s_cms else s.s_ms)
      else None)
    l.samples

let compile_verbs = [ L.Check; L.Fuse ]

(* ops per minute of busy time, from calibrated or wall op times *)
let ops_per_min ?(calibrated = true) (l : loop) =
  let ms = List.map (fun s -> if calibrated then s.s_cms else s.s_ms) l.samples in
  float_of_int (List.length ms) /. sum ms *. 60000.0

(* end-to-end values, each with its sample count *)
let end_to_end (o : outcome) : (string * float * int) list =
  let l = o.untraced in
  let searches = ms_of [ L.Search ] l in
  [
    ("setup_s", med o.setup_s, List.length o.setup_s);
    ("ops_per_min", ops_per_min l, List.length l.samples);
    ("search_p50_ms", med searches, List.length searches);
    ("peak_rss_mb", o.rss_mb, 1);
  ]

(* Tails, per-class latencies and the wall-clock readings behind the
   calibrated metrics, printed and saved but outside the result line. *)
let extras (o : outcome) : (string * float * string) list =
  let l = o.untraced in
  let tail name xs =
    let n = List.length xs in
    match L.tail_p n with
    | Some p ->
        [ (Printf.sprintf "%s_p%d_ms" name p, Option.get (L.percentile ~p xs), "ms") ]
    | None -> []
  in
  let searches = ms_of [ L.Search ] l and compiles = ms_of compile_verbs l in
  let compile =
    if compiles = [] then [] else ("compile_p50_ms", med compiles, "ms") :: tail "compile" compiles
  in
  tail "search" searches @ compile
  @ [
      ("wall.setup_s", med o.setup_wall_s, "s");
      ("wall.ops_per_min", ops_per_min ~calibrated:false l, "ops/min");
      ("wall.search_p50_ms", med (ms_of ~calibrated:false [ L.Search ] l), "ms");
      ("host.cal_p50_ms", med l.cals, "ms");
    ]
  @ o.extra

let per_layer (o : outcome) (t : loop) : (string * float) list =
  let total name =
    List.fold_left
      (fun acc s -> if s.name = name then acc +. ((s.t1 -. s.t0) *. 1000.0) else acc)
      0.0 !spans
  in
  let per n x = if n = 0 then 0.0 else x /. float_of_int n in
  let per_search name = per layers.searches (total name) in
  let per_pair name = per passes.pairs (total name) in
  let search_ms = per_search "profiler.search" in
  let profile_ms = per_search "profiler.search.profile" in
  let trace_ms = per_search "profiler.search.trace" in
  (* op wall not covered by the op's top-level spans *)
  let roots = List.filter (fun s -> s.parent = 0 && s.op <> 0) !spans in
  let covered =
    List.fold_left
      (fun acc r ->
        acc
        +. List.fold_left
             (fun a s ->
               if s.parent = r.id && not s.derived then a +. (s.t1 -. s.t0) else a)
             0.0 !spans)
      0.0 roots
  in
  let op_wall = List.fold_left (fun a r -> a +. (r.t1 -. r.t0)) 0.0 roots in
  let counts x = per layers.searches (float_of_int x) in
  let busy (l : loop) = sum (List.map (fun s -> s.s_cms) l.samples) in
  [
    ("profiler.rep_sizes_ms", total "profiler.rep_sizes");
    ("kernels.configure_ms", per_search "kernels.configure");
    ("profiler.native_ms", per_search "profiler.native");
    ("profiler.search_ms", search_ms);
    ("profiler.search_profile_ms", profile_ms);
    ("profiler.search_trace_ms", trace_ms);
    ("profiler.search_self_ms", search_ms -. profile_ms -. trace_ms);
    ( "profiler.cache_hit_share",
      per (layers.cache_hits + layers.profiled) (float_of_int layers.cache_hits) );
    ("profiler.cache_stores", counts layers.cache_stores);
    ("profiler.traced", counts layers.traced);
    ("profiler.trace_hits", counts layers.trace_hits);
    ("profiler.trace_merged", counts layers.trace_merged);
    ("profiler.trace_mem_mb", float_of_int !trace_mem_bytes /. 1e6);
    ("cuda.parse_ms", per_pair "cuda.parse");
    ("frontend.normalize_ms", per_pair "frontend.normalize");
    ("core.enumerate_ms", per_pair "core.enumerate");
    ("core.partitions", per passes.pairs (float_of_int passes.partitions));
    ("core.generate_ms", per_pair "core.generate");
    ("core.generated", per passes.pairs (float_of_int passes.generated));
    ("analysis.verify_ms", per_pair "analysis.verify");
    ( "analysis.reject_share",
      per passes.generated (float_of_int passes.rejected) );
    ("core.emit_ms", per_pair "core.emit");
    ("costmodel.rank_ms", per_pair "costmodel.rank");
    ("gpusim.record_ms", per_pair "gpusim.record");
    ("gpusim.record_minstr_per_s", float_of_int passes.instrs /. passes.record_s /. 1e6);
    ("gpusim.replay_ms", per_pair "gpusim.replay");
    ( "gpusim.replay_mcycles_per_s",
      float_of_int passes.cycles /. passes.replay_s /. 1e6 );
    ( "gpusim.cycles_skipped_share",
      per (passes.stepped + passes.skipped) (float_of_int passes.skipped) );
    ("parallel.failures", float_of_int o.parallel.failures);
    ("parallel.retries", float_of_int o.parallel.retries);
    ("trace.unattributed_share", (op_wall -. covered) /. op_wall);
    ("trace.overhead_pct", 100.0 *. (busy t -. busy o.untraced) /. busy o.untraced);
  ]

let unit_of name =
  match L.find_metric name with Some m -> m.L.m_unit | None -> "ms"

(* ------------------------------------------------------------------ *)
(* run                                                                  *)
(* ------------------------------------------------------------------ *)

let metric_json (ms : (string * float) list) =
  Json.Obj
    (List.map
       (fun (name, v) ->
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str (unit_of name)) ]))
       ms)

let run_workload (o : options) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let wname = L.workload_name o.workload in
  let outcome =
    match o.workload with
    | L.Daemon_mixed -> daemon_mixed o
    | _ -> in_process o
  in
  let e2e = end_to_end outcome in
  let extra = extras outcome in
  let layer_ms =
    match outcome.traced with Some t -> per_layer outcome t | None -> []
  in
  (* the result line names exactly the catalogue BENCHMARK.json is
     tested against *)
  let names = List.map (fun (m : L.metric) -> m.m_name) in
  if List.map (fun (n, _, _) -> n) e2e <> names L.end_to_end then
    fail "end-to-end metrics out of step with the catalogue";
  if o.trace && List.map fst layer_ms <> names L.per_layer then
    fail "per-layer metrics out of step with the catalogue";
  Printf.printf "hfbench %s seed=%d seconds=%g cpu=%d%s%s\n" wname o.seed o.seconds
    !pinned_cpu
    (if o.smoke then " smoke" else "")
    (if o.trace then " traced" else "");
  List.iter
    (fun (name, v, n) ->
      Printf.printf "  %-32s %14.4f %-9s n=%d\n" name v (unit_of name) n)
    e2e;
  List.iter
    (fun (name, v, u) -> Printf.printf "  %-32s %14.4f %-9s\n" name v u)
    extra;
  List.iter
    (fun (name, v) -> Printf.printf "  %-32s %14.4f %s\n" name v (unit_of name))
    layer_ms;
  List.iter (fun m -> Printf.printf "  mismatch: %s\n" m) (List.rev tally.mismatches);
  let correct = tally.failed = 0 in
  let metrics =
    if o.trace then layer_ms else List.map (fun (n, v, _) -> (n, v)) e2e
  in
  let result =
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int tally.attempted);
      ("failed", Json.Int tally.failed);
      ("metrics", metric_json metrics);
    ]
  in
  (match o.json_out with
  | None -> ()
  | Some path ->
      let samples = List.map (fun (n, _, k) -> (n, Json.Int k)) e2e in
      write_file path
        (Json.to_string
           (Json.Obj
              ([
                 ("workload", Json.Str wname);
                 ("seed", Json.Int o.seed);
                 ("seconds", Json.Float o.seconds);
                 ("smoke", Json.Bool o.smoke);
                 ("trace", Json.Bool o.trace);
                 ("machine", machine ());
               ]
              @ result
              @ [
                  ("samples", Json.Obj samples);
                  ( "extra",
                    metric_json (List.map (fun (n, v, _) -> (n, v)) extra) );
                ]))));
  (match o.trace_out with
  | Some path when o.trace -> write_spans path
  | _ -> ());
  print_endline (Json.to_line (Json.Obj result));
  if not correct then exit 1

(* All workloads, each in a fresh child process of this program. *)
let run_all (o : options) ~args =
  let dir = Lazy.force work_dir in
  let records =
    List.map
      (fun w ->
        let name = L.workload_name w in
        let json = Filename.concat dir (name ^ ".json") in
        let argv =
          Array.of_list
            ([ self_exe; "run"; "--workload"; name; "--json"; json ]
            @ args
            @
            match o.trace_out with
            | Some p when o.trace ->
                [ "--trace-out"; Printf.sprintf "%s.%s" p name ]
            | _ -> [])
        in
        let pid =
          Unix.create_process self_exe argv Unix.stdin Unix.stdout Unix.stderr
        in
        children := pid :: !children;
        let _, status = Unix.waitpid [] pid in
        children := List.filter (( <> ) pid) !children;
        match status with
        | Unix.WEXITED 0 -> read_json json
        | _ -> fail "workload %s failed" name)
      L.workloads
  in
  let rs = List.concat_map L.records_of_json records in
  let cols = if o.trace then L.per_layer else L.end_to_end in
  Printf.printf "\n%-14s" "workload";
  List.iter (fun m -> Printf.printf " %16s" m.L.m_name) cols;
  print_newline ();
  List.iter
    (fun (r : L.record) ->
      Printf.printf "%-14s" r.r_workload;
      List.iter
        (fun m ->
          match List.assoc_opt m.L.m_name r.r_metrics with
          | Some v -> Printf.printf " %16.4f" v
          | None -> Printf.printf " %16s" "-")
        cols;
      print_newline ())
    rs;
  let all = Json.Obj [ ("machine", machine ()); ("runs", Json.List records) ] in
  Option.iter (fun p -> write_file p (Json.to_string all)) o.json_out;
  let ok = List.for_all (fun (r : L.record) -> r.r_correct) rs in
  print_endline
    (Json.to_line
       (Json.Obj
          [
            ("correct", Json.Bool ok);
            ( "attempted",
              Json.Int (List.fold_left (fun a (r : L.record) -> a + r.r_attempted) 0 rs) );
            ( "failed",
              Json.Int (List.fold_left (fun a (r : L.record) -> a + r.r_failed) 0 rs) );
          ]));
  if not ok then exit 1

(* ------------------------------------------------------------------ *)
(* compare                                                              *)
(* ------------------------------------------------------------------ *)

(* Runs are paired in the order given, per workload; a pair must share
   its settings.  Each workload's failures are printed per side, and a
   change that fails more operations than its parent gains nothing.
   Exits 1 when any run's outputs were incorrect. *)
let compare_cmd ~parent ~change =
  let load files = List.concat_map (fun f -> L.records_of_json (read_json f)) files in
  let p = load parent and c = load change in
  let quart xs =
    match L.quartiles xs with
    | Some (q1, q2, q3) -> Printf.sprintf "%.4g [%.4g, %.4g]" q2 q1 q3
    | None -> "-"
  in
  let incorrect = ref 0 in
  Printf.printf "%-14s %-28s %-30s %-30s %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "verdict";
  List.iter
    (fun w ->
      let w = L.workload_name w in
      let runs rs = List.filter (fun (r : L.record) -> r.r_workload = w) rs in
      let pr = runs p and cr = runs c in
      if List.length pr <> List.length cr then
        fail "%s: %d parent runs against %d change runs" w (List.length pr)
          (List.length cr);
      List.iteri
        (fun i (a, b) ->
          Option.iter (fail "%s, pair %d: %s" w (i + 1)) (L.pairing_error a b))
        (List.combine pr cr);
      if pr <> [] then begin
        let sum f rs = List.fold_left (fun acc r -> acc + f r) 0 rs in
        let failed = sum (fun (r : L.record) -> r.r_failed)
        and attempted = sum (fun (r : L.record) -> r.r_attempted)
        and wrong = sum (fun (r : L.record) -> if r.r_correct then 0 else 1) in
        incorrect := !incorrect + wrong pr + wrong cr;
        Printf.printf
          "%-14s failed/attempted: parent %d/%d, change %d/%d; incorrect runs: \
           parent %d, change %d\n"
          w (failed pr) (attempted pr) (failed cr) (attempted cr) (wrong pr) (wrong cr);
        let fails_more = failed cr > failed pr in
        let values rs name =
          List.filter_map (fun (r : L.record) -> List.assoc_opt name r.r_metrics) rs
        in
        List.iter
          (fun (m : L.metric) ->
            let pv = values pr m.m_name and cv = values cr m.m_name in
            if pv <> [] || cv <> [] then
              Printf.printf "%-14s %-28s %-30s %-30s %s\n" w m.m_name (quart pv)
                (quart cv)
                (L.verdict_name
                   (L.classify ~fails_more ~better:m.m_better ~bound:m.m_bound
                      ~parent:pv ~change:cv ())))
          (L.end_to_end @ L.per_layer)
      end)
    L.workloads;
  if !incorrect > 0 then begin
    Printf.printf "runs with incorrect outputs: %d; their numbers do not count\n" !incorrect;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* refs                                                                 *)
(* ------------------------------------------------------------------ *)

(* Rewrite the committed references: the paper pairs by running the
   size probe and their searches here, the fleet rows from a [bench --
   fleet --top-k 8 --json] report. *)
let refs_cmd ~fleet_json =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let settings = settings_at (fresh_root ()) in
  let probe = Lazy.force sizes_memo in
  let pairs =
    List.map
      (fun ((s1 : Spec.t), (s2 : Spec.t)) ->
        let pair = (s1.name, s2.name) in
        let p = search_params ~probe Paper pair in
        let out = (Ops.search ~settings p).Ops.output in
        Runner.clear_cache ();
        let mem = Gpusim.Memory.create () in
        let c1 = Runner.configure mem s1 ~size:(Option.get p.s_size1) in
        let c2 = Runner.configure mem s2 ~size:(Option.get p.s_size2) in
        let native = (Runner.native ~settings arch c1 c2).Gpusim.Timing.time_ms in
        let b = (Runner.search ~jobs ~settings arch c1 c2).Search.best in
        Json.Obj
          [
            ("pair", Json.Str (L.pair_name pair));
            ("size1", Json.Int c1.size);
            ("size2", Json.Int c2.size);
            ("md5", Json.Str (md5 out));
            ("native_ms", Json.Float native);
            ("best_d1", Json.Int b.fused.d1);
            ("best_d2", Json.Int b.fused.d2);
            ("best_r0", Json.opt (fun r -> Json.Int r) b.config.reg_bound);
            ("best_ms", Json.Float b.time);
          ])
      Kernel_corpus.Registry.all_pairs
  in
  Profile_cache.mkdir_p refs_dir;
  write_file
    (Filename.concat refs_dir "paper_1080Ti.json")
    (Json.to_string
       (Json.Obj
          [
            ("arch", Json.Str arch.Gpusim.Arch.name);
            ("search", Json.Str "exhaustive, representative sizes");
            ("pairs", Json.List pairs);
          ]));
  Option.iter
    (fun f ->
      let j = read_json f in
      let rows =
        match Json.member "rows" j with
        | Some (Json.List rs) ->
            List.map
              (fun r ->
                Json.Obj
                  (List.filter_map
                     (fun k -> Option.map (fun v -> (k, v)) (Json.member k r))
                     [ "i"; "pair"; "status"; "digest"; "native_ms"; "best_ms" ]))
              rs
        | _ -> fail "%s: no rows" f
      in
      write_file
        (Filename.concat refs_dir "fleet_rows.json")
        (Json.to_string
           (Json.Obj
              [
                ("corpus_digest", Option.value (Json.member "corpus_digest" j) ~default:Json.Null);
                ("arch", Json.Str arch.Gpusim.Arch.name);
                ("size", Json.Int 1);
                ("top_k", Json.Int 8);
                ("rows", Json.List rows);
              ])))
    fleet_json

(* ------------------------------------------------------------------ *)
(* costs                                                                *)
(* ------------------------------------------------------------------ *)

(* The cost of each pair as the workloads run it, which the pair sets
   are chosen from.  Paper: the 16 pairs, one cold search on an empty
   root, then the median of three warm searches on that root with the
   memory tiers cleared.  Fleet: one cold search of each of the 1128
   pairs, in the reference's order (8-10 minutes).  Wall times. *)
let costs_cmd ~fleet =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let timed fam ~settings pair =
    Runner.clear_cache ();
    let t0 = now () in
    note (check_output fam pair (ops_search fam ~settings pair));
    (now () -. t0) *. 1000.0
  in
  if fleet then begin
    Corpus.install ();
    let path = Filename.concat refs_dir "fleet_rows.json" in
    let rows =
      match Json.member "rows" (read_json path) with
      | Some (Json.List rs) -> rs
      | _ -> fail "%s: no rows" path
    in
    Printf.printf "%5s %-24s %8s\n%!" "i" "pair" "cold_ms";
    let ms =
      List.mapi
        (fun i r ->
          let name = str_field "pair" r in
          let pair =
            match String.split_on_char '+' name with
            | [ k1; k2 ] -> (k1, k2)
            | _ -> fail "%s: bad pair %s" path name
          in
          let root = fresh_root () in
          let d = timed Fleet ~settings:(settings_at root) pair in
          rm_rf root;
          Printf.printf "%5d %-24s %8.0f\n%!" i name d;
          d)
        rows
    in
    Printf.printf "median %.1f ms, mean %.1f ms over %d pairs\n"
      (Option.get (L.median ms))
      (sum ms /. float_of_int (List.length ms))
      (List.length ms)
  end
  else begin
    Printf.printf "%-22s %10s %10s\n%!" "pair" "cold_ms" "warm_ms";
    List.iter
      (fun ((s1 : Spec.t), (s2 : Spec.t)) ->
        let pair = (s1.name, s2.name) in
        let settings = settings_at (fresh_root ()) in
        let cold = timed Paper ~settings pair in
        let warm =
          Option.get (L.median (List.init 3 (fun _ -> timed Paper ~settings pair)))
        in
        Printf.printf "%-22s %10.0f %10.0f\n%!" (L.pair_name pair) cold warm)
      Kernel_corpus.Registry.all_pairs
  end;
  if tally.failed > 0 then fail "%d searches differ from the reference" tally.failed

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let usage =
  "usage: hfbench.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n\
  \                       [--trace-out FILE] [--json FILE] [--smoke]\n\
  \       hfbench.exe compare --parent FILE... --change FILE...\n\
  \       hfbench.exe costs [--fleet]\n\
  \       hfbench.exe refs [--fleet BENCH_fleet.json]"

let int_arg flag v =
  match int_of_string_opt v with Some n -> n | None -> fail "%s expects an integer" flag

let workload_arg w =
  match L.workload_of_name w with Some w -> w | None -> fail "unknown workload %s" w

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "run" :: rest ->
      let o =
        ref
          {
            workload = L.Paper_warm;
            seed = 0;
            seconds = 15.0;
            trace = false;
            smoke = false;
            json_out = None;
            trace_out = None;
          }
      in
      let one = ref false and passthrough = ref [] in
      let keep l = passthrough := !passthrough @ l in
      let rec parse = function
        | "--workload" :: w :: r ->
            o := { !o with workload = workload_arg w };
            one := true;
            parse r
        | "--seed" :: n :: r ->
            o := { !o with seed = int_arg "--seed" n };
            keep [ "--seed"; n ];
            parse r
        | "--seconds" :: n :: r ->
            o := { !o with seconds = float_of_int (int_arg "--seconds" n) };
            keep [ "--seconds"; n ];
            parse r
        | "--trace" :: (("0" | "1") as v) :: r ->
            o := { !o with trace = v = "1" };
            keep [ "--trace"; v ];
            parse r
        | "--trace" :: r ->
            o := { !o with trace = true };
            keep [ "--trace"; "1" ];
            parse r
        | "--trace-out" :: f :: r ->
            o := { !o with trace_out = Some f };
            parse r
        | "--json" :: f :: r ->
            o := { !o with json_out = Some f };
            parse r
        | "--smoke" :: r ->
            o := { !o with smoke = true };
            keep [ "--smoke" ];
            parse r
        | [] -> ()
        | a :: _ -> fail "unknown argument %s\n%s" a usage
      in
      parse rest;
      if !o.smoke then o := { !o with seconds = 0.0 };
      pinned_cpu := pin_to_current_cpu ();
      if !one then run_workload !o else run_all !o ~args:!passthrough
  | [ "setup"; w ] -> setup_cmd (workload_arg w)
  | "fill" :: "--root" :: root :: smoke -> fill_cmd ~root ~smoke:(smoke = [ "--smoke" ])
  | "compare" :: rest ->
      let rec split side p c = function
        | "--parent" :: r -> split `P p c r
        | "--change" :: r -> split `C p c r
        | f :: r -> (
            match side with
            | `P -> split side (f :: p) c r
            | `C -> split side p (f :: c) r
            | `None -> fail "%s" usage)
        | [] -> (List.rev p, List.rev c)
      in
      let parent, change = split `None [] [] rest in
      if parent = [] || change = [] then fail "%s" usage;
      compare_cmd ~parent ~change
  | [ "costs" ] -> costs_cmd ~fleet:false
  | [ "costs"; "--fleet" ] -> costs_cmd ~fleet:true
  | [ "refs" ] -> refs_cmd ~fleet_json:None
  | [ "refs"; "--fleet"; f ] -> refs_cmd ~fleet_json:(Some f)
  | _ -> fail "%s" usage
