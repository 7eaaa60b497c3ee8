(* The fleet driver: corpus-scale fusion-search soak.

   Enumerates every unordered pair of the fleet corpus in canonical
   order, deterministically shards them ([--shards N --shard i] keeps
   the pairs whose index is congruent to i mod N), runs the Fig. 6
   search on each — in-process through the shared verb engine
   ({!Hfuse_serve.Ops.search}), or through a live daemon with
   [via_server] — and reports per-pair rows plus aggregate scaling
   metrics (throughput, cache traffic, fault recoveries).

   Determinism contract: a row is a pure function of (corpus, arch,
   sizes, top_k) — the same at any shard count, any [-j], any cache
   temperature, chaos on or off, in-process or via daemon.  The row
   digest is the MD5 of the search's byte-exact stdout payload, so CI
   can diff whole fleets cheaply.

   Kill/resume: with [resume] every completed row is journaled (one
   {!Hfuse_profiler.Store.Journal} record per row, its JSON line) and
   candidate-level profiling rides the regular checkpoint journal,
   so a shard killed mid-run resumes without recomputing finished
   pairs — and mid-pair kills resume without re-profiling finished
   candidates. *)

module Spec = Kernel_corpus.Spec
module Settings = Hfuse_profiler.Settings
module Checkpoint = Hfuse_profiler.Checkpoint
module Store = Hfuse_profiler.Store
module Json = Hfuse_profiler.Report.Json
module Report = Hfuse_profiler.Report
module Ops = Hfuse_serve.Ops
module Protocol = Hfuse_serve.Protocol
module Client = Hfuse_serve.Client
module Fault = Hfuse_fault.Fault
module Pool = Hfuse_parallel.Pool
module Search = Hfuse_core.Search

type pair = { p_index : int; p_k1 : Spec.t; p_k2 : Spec.t; p_domain : string }

type row = {
  r_index : int;
  r_pair : string;
  r_domain : string;
  r_status : string;  (** ["ok" | "rejected" | "failed"] *)
  r_digest : string;  (** MD5 hex of the search output; [""] unless ok *)
  r_native_ms : float;
  r_best_ms : float;
  r_speedup_pct : float;
  r_repaired : bool;
      (** the search admitted at least one partition via repair *)
  r_newly_fusable : bool;
      (** every admitted candidate came through repair — without it the
          verifier would have rejected the whole pair *)
}

type config = {
  arch : Gpusim.Arch.t;
  shards : int;
  shard : int;
  limit : int option;  (** run only the first N pairs of the corpus *)
  jobs : int;
  size : int;  (** workload size for hand-written kernels *)
  top_k : int option;
  repair : bool;
      (** attempt diagnostic-driven repair of verifier-rejected
          partitions (admission stays behind the differential oracle) *)
  via_server : string option;  (** socket path: drive a live daemon *)
  resume : bool;
  out_dir : string option;  (** write [.cu] repros of failed pairs here *)
  settings : Settings.t;
  on_row : completed:int -> total:int -> row -> unit;
}

let default_config (settings : Settings.t) : config =
  {
    arch = Gpusim.Arch.gtx1080ti;
    shards = 1;
    shard = 0;
    limit = None;
    jobs = 1;
    size = 1;
    top_k = None;
    repair = false;
    via_server = None;
    resume = false;
    out_dir = None;
    settings;
    on_row = (fun ~completed:_ ~total:_ _ -> ());
  }

type result = {
  rows : row list;  (** this shard's rows, ascending index *)
  pairs_total : int;  (** corpus-wide pair count after [limit] *)
  executed : int;  (** rows computed in this invocation *)
  resumed : int;  (** rows replayed from the journal *)
  torn : int;  (** damaged journal rows dropped (their pairs re-ran) *)
  wall_s : float;
  telemetry : Report.telemetry_sums;
      (** per-section counter sums over every executed search *)
  corpus_digest : string;
  kernels : int;
}

(* ------------------------------------------------------------------ *)
(* Pair enumeration and sharding                                        *)
(* ------------------------------------------------------------------ *)

let domain_name (k : Spec.kind) =
  match k with
  | Spec.Deep_learning -> "dl"
  | Spec.Crypto -> "crypto"
  | Spec.Image -> "image"
  | Spec.Reduction -> "reduction"
  | Spec.Generated -> "generated"

let domain_of (s1 : Spec.t) (s2 : Spec.t) =
  if s1.kind = s2.kind then domain_name s1.kind else "mixed"

(** Every unordered pair of the fleet corpus in canonical order:
    kernels in {!Corpus.all_specs} order, pairs (i, j) with i < j
    enumerated lexicographically and indexed from 0. *)
let all_pairs () : pair list =
  let specs = Array.of_list (Corpus.all_specs ()) in
  let n = Array.length specs in
  let out = ref [] in
  let idx = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let s1 = specs.(i) and s2 = specs.(j) in
      out :=
        { p_index = !idx; p_k1 = s1; p_k2 = s2; p_domain = domain_of s1 s2 }
        :: !out;
      incr idx
    done
  done;
  List.rev !out

let limited_pairs (cfg : config) : pair list =
  let ps = all_pairs () in
  match cfg.limit with
  | None -> ps
  | Some n -> List.filteri (fun i _ -> i < n) ps

let shard_pairs (cfg : config) : pair list =
  if cfg.shards < 1 then invalid_arg "fleet: shards must be >= 1";
  if cfg.shard < 0 || cfg.shard >= cfg.shards then
    invalid_arg "fleet: shard must be in [0, shards)";
  List.filter
    (fun p -> p.p_index mod cfg.shards = cfg.shard)
    (limited_pairs cfg)

(* ------------------------------------------------------------------ *)
(* Run identity and the row journal                                     *)
(* ------------------------------------------------------------------ *)

(* -j, fault plans, cache temperature and via_server are deliberately
   excluded: rows are bit-identical across them, so a resume may change
   any of them. *)
let run_id (cfg : config) : string =
  Checkpoint.run_id
    ~sim_fuel:cfg.settings.Settings.sim_fuel
    ~trace_blocks:cfg.settings.Settings.trace_blocks
    ~parts:
      ([
        "fleet";
        Corpus.digest ();
        cfg.arch.Gpusim.Arch.name;
        "size" ^ string_of_int cfg.size;
        (match cfg.limit with
        | None -> "nolimit"
        | Some n -> "limit" ^ string_of_int n);
        (match cfg.top_k with
        | None -> "exhaustive"
        | Some k -> "top" ^ string_of_int k);
        Printf.sprintf "shard%d.%d" cfg.shard cfg.shards;
      ]
      (* appended only when enabled, so every pre-repair journal id —
         and every repair-off id minted by this version — is unchanged *)
      @ (if cfg.repair then [ "repair" ] else []))
    ()

let json_of_row (r : row) : Json.t =
  Json.Obj
    [
      ("i", Json.Int r.r_index);
      ("pair", Json.Str r.r_pair);
      ("domain", Json.Str r.r_domain);
      ("status", Json.Str r.r_status);
      ("digest", Json.Str r.r_digest);
      ("native_ms", Json.Float r.r_native_ms);
      ("best_ms", Json.Float r.r_best_ms);
      ("speedup_pct", Json.Float r.r_speedup_pct);
      ("repaired", Json.Bool r.r_repaired);
      ("newly_fusable", Json.Bool r.r_newly_fusable);
    ]

let row_of_json (j : Json.t) : row option =
  let str k = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None in
  let num k = Option.bind (Json.member k j) Json.to_float_opt in
  let int k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
  match (int "i", str "pair", str "domain", str "status") with
  | Some i, Some pair, Some domain, Some status ->
      Some
        {
          r_index = i;
          r_pair = pair;
          r_domain = domain;
          r_status = status;
          r_digest = Option.value (str "digest") ~default:"";
          r_native_ms = Option.value (num "native_ms") ~default:0.0;
          r_best_ms = Option.value (num "best_ms") ~default:0.0;
          r_speedup_pct = Option.value (num "speedup_pct") ~default:0.0;
          (* absent in pre-repair journals: those rows never repaired *)
          r_repaired =
            (match Json.member "repaired" j with
            | Some (Json.Bool b) -> b
            | _ -> false);
          r_newly_fusable =
            (match Json.member "newly_fusable" j with
            | Some (Json.Bool b) -> b
            | _ -> false);
        }
  | _ -> None

let rows_path ~id = Filename.concat Checkpoint.default_dir (id ^ ".rows")

(* journaled rows by index, and how many payloads did not decode *)
let rows_of_payloads payloads : (int, row) Hashtbl.t * int =
  let tbl = Hashtbl.create 256 in
  let bad =
    List.fold_left
      (fun bad payload ->
        let json = Result.to_option (Json.of_string payload) in
        match Option.bind json row_of_json with
        | Some r ->
            Hashtbl.replace tbl r.r_index r;
            bad
        | None -> bad + 1)
      0 payloads
  in
  (tbl, bad)

let append_row j (r : row) =
  Store.Journal.append j (Json.to_line (json_of_row r))

(* ------------------------------------------------------------------ *)
(* Executing one pair                                                   *)
(* ------------------------------------------------------------------ *)

let size_for (cfg : config) (s : Spec.t) =
  match s.kind with Spec.Generated -> 1 | _ -> cfg.size

let params_for (cfg : config) (p : pair) : Ops.search_params =
  {
    Ops.s_arch = cfg.arch;
    s_k1 = p.p_k1;
    s_k2 = p.p_k2;
    s_size1 = Some (size_for cfg p.p_k1);
    s_size2 = Some (size_for cfg p.p_k2);
    s_emit = false;
    s_jobs = cfg.jobs;
    s_top_k = cfg.top_k;
    s_repair = cfg.repair;
  }

(* Parse the deterministic search output: the native baseline, the best
   candidate's time, and — under [--repair] — the repair summary line
   ("repaired: N partition(s), rejected: M[, newly fusable]").  The same
   text arrives from the in-process engine and from the daemon
   (byte-identical by the PR 7 contract), so rows agree across modes by
   construction. *)
let parse_output (output : string) : (float * float * bool * bool) option =
  let lines = String.split_on_char '\n' output in
  let tokens l =
    String.split_on_char ' ' l |> List.filter (fun s -> s <> "")
  in
  let native =
    List.find_map
      (fun l ->
        match tokens l with
        | [ "native:"; v; "ms" ] -> float_of_string_opt v
        | _ -> None)
      lines
  in
  let best_key =
    List.find_map
      (fun l ->
        match tokens l with
        | [ "best:"; part; cfg ] -> Some (part, cfg)
        | _ -> None)
      lines
  in
  let repaired, newly_fusable =
    List.find_map
      (fun l ->
        match tokens l with
        | "repaired:" :: n :: rest ->
            Option.map
              (fun n -> (n > 0, List.exists (String.equal "fusable") rest))
              (int_of_string_opt n)
        | _ -> None)
      lines
    |> Option.value ~default:(false, false)
  in
  match (native, best_key) with
  | Some native, Some (part, cfgs) ->
      let best_time =
        List.find_map
          (fun l ->
            match tokens l with
            | p :: c :: t :: "ms" :: _ when p = part && c = cfgs ->
                float_of_string_opt t
            | _ -> None)
          lines
      in
      Option.map (fun t -> (native, t, repaired, newly_fusable)) best_time
  | _ -> None

let status_row (p : pair) status : row =
  {
    r_index = p.p_index;
    r_pair = p.p_k1.Spec.name ^ "+" ^ p.p_k2.Spec.name;
    r_domain = p.p_domain;
    r_status = status;
    r_digest = "";
    r_native_ms = 0.0;
    r_best_ms = 0.0;
    r_speedup_pct = 0.0;
    r_repaired = false;
    r_newly_fusable = false;
  }

let row_of_output (p : pair) (output : string) : row =
  match parse_output output with
  | Some (native, best, repaired, newly_fusable) ->
      {
        r_index = p.p_index;
        r_pair = p.p_k1.Spec.name ^ "+" ^ p.p_k2.Spec.name;
        r_domain = p.p_domain;
        r_status = "ok";
        r_digest = Digest.to_hex (Digest.string output);
        r_native_ms = native;
        r_best_ms = best;
        r_speedup_pct = 100.0 *. ((native /. best) -. 1.0);
        r_repaired = repaired;
        r_newly_fusable = newly_fusable;
      }
  | None -> status_row p "failed"

let write_repro (cfg : config) (p : pair) ~(detail : string) =
  match cfg.out_dir with
  | None -> ()
  | Some dir ->
      Store.mkdir_p dir;
      let file =
        Filename.concat dir
          (Printf.sprintf "%04d_%s+%s.cu" p.p_index p.p_k1.Spec.name
             p.p_k2.Spec.name)
      in
      Out_channel.with_open_text file (fun oc ->
          Printf.fprintf oc
            "// fleet repro: pair %d (%s), %s\n// %s\n%s\n%s\n" p.p_index
            p.p_domain cfg.arch.Gpusim.Arch.name detail p.p_k1.Spec.source
            p.p_k2.Spec.source)

(* One search through the in-process verb engine, under a ledger of
   its own: a rejected search raises, but what it counted (its [rej_*]
   verdicts) still reaches the report. *)
let run_local (cfg : config) ?pool ~checkpoint (p : pair) :
    row * Json.t option =
  let ledger = Ledger.create () in
  match
    Ledger.within (Some ledger) (fun () ->
        Ops.search ~settings:cfg.settings ~checkpoint ?pool (params_for cfg p))
  with
  | o -> (row_of_output p o.Ops.output, Some o.Ops.telemetry)
  | exception Search.No_valid_partition _ ->
      ( status_row p "rejected",
        Some (Json.Obj [ ("search", Report.json_of_section ledger "search") ]) )
  | exception Sys.Break -> raise Sys.Break
  | exception e ->
      write_repro cfg p ~detail:(Printexc.to_string e);
      (status_row p "failed", None)

(* One search through a live daemon.  Transport failures abort the run
   (a dead daemon must not masquerade as a thousand failed pairs);
   daemon-side rejections map to the same row statuses as local ones. *)
let run_via_server (cfg : config) ~socket (p : pair) : row * Json.t option =
  let req =
    {
      Protocol.id = Printf.sprintf "fleet-%d" p.p_index;
      priority = 0;
      settings = Protocol.spec_of_settings cfg.settings;
      verb = Protocol.Work (Ops.Search (params_for cfg p));
    }
  in
  match Client.call ~socket req with
  | Ok (Protocol.Result { output; exit_code = 0; telemetry; _ }) ->
      (row_of_output p output, Some telemetry)
  | Ok (Protocol.Result { exit_code; _ }) ->
      write_repro cfg p ~detail:(Printf.sprintf "daemon exit_code %d" exit_code);
      (status_row p "failed", None)
  | Ok (Protocol.Failure { code; _ })
    when code = Protocol.code_name Protocol.Rejected ->
      (status_row p "rejected", None)
  | Ok (Protocol.Failure { message; _ }) ->
      write_repro cfg p ~detail:("daemon: " ^ message);
      (status_row p "failed", None)
  | Error msg -> failwith (Printf.sprintf "fleet: daemon transport: %s" msg)

(* ------------------------------------------------------------------ *)
(* The drive loop                                                       *)
(* ------------------------------------------------------------------ *)

let run (cfg : config) : result =
  if cfg.via_server <> None && cfg.resume then
    invalid_arg "fleet: --resume does not apply to --via-server runs";
  Corpus.install ();
  let t0 = Unix.gettimeofday () in
  let pairs = shard_pairs cfg in
  let pairs_total = List.length (limited_pairs cfg) in
  let total = List.length pairs in
  let id = run_id cfg in
  let journal, torn, checkpoint =
    if cfg.resume && cfg.via_server = None then begin
      let j, payloads, torn =
        Store.Journal.open_ ~header:None (rows_path ~id)
      in
      let done_rows, bad = rows_of_payloads payloads in
      (Some (done_rows, j), torn + bad, Checkpoint.open_ ~run_id:id ())
    end
    else (None, 0, Checkpoint.disabled)
  in
  (* both journals close on every exit, Ctrl-C and transport failures
     included *)
  Fun.protect ~finally:(fun () ->
      Option.iter (fun (_, j) -> Store.Journal.close j) journal;
      Checkpoint.close checkpoint)
  @@ fun () ->
  let telemetry = ref [] in
  let telemetry_mutex = Mutex.create () in
  let resumed = ref 0 and executed = ref 0 in
  let results : row option array = Array.make total None in
  let completed = ref 0 in
  let record slot (r : row) ~(fresh : bool) =
    results.(slot) <- Some r;
    incr completed;
    if fresh then begin
      incr executed;
      Option.iter (fun (_, j) -> append_row j r) journal
    end
    else incr resumed;
    cfg.on_row ~completed:!completed ~total r
  in
  let note_telemetry = function
    | None -> ()
    | Some t ->
        Mutex.protect telemetry_mutex (fun () ->
            telemetry := Report.add_telemetry !telemetry t)
  in
  (match cfg.via_server with
  | Some socket ->
      (* soak the daemon with [jobs] concurrent client threads; rows
         land by index so completion order is irrelevant *)
      let parr = Array.of_list pairs in
      let next = ref 0 in
      let m = Mutex.create () in
      let take () =
        Mutex.lock m;
        let i = !next in
        if i < Array.length parr then incr next;
        Mutex.unlock m;
        if i < Array.length parr then Some i else None
      in
      let errors = ref [] in
      let worker () =
        let rec loop () =
          match take () with
          | None -> ()
          | Some i ->
              (match run_via_server cfg ~socket parr.(i) with
              | row, tel ->
                  note_telemetry tel;
                  Mutex.lock m;
                  record i row ~fresh:true;
                  Mutex.unlock m
              | exception e ->
                  Mutex.lock m;
                  errors := e :: !errors;
                  Mutex.unlock m);
              if !errors = [] then loop ()
        in
        loop ()
      in
      let threads =
        List.init (max 1 cfg.jobs) (fun _ -> Thread.create worker ())
      in
      List.iter Thread.join threads;
      (match !errors with e :: _ -> raise e | [] -> ())
  | None ->
      let pool = if cfg.jobs > 1 then Some (Pool.create cfg.jobs) else None in
      Fun.protect
        ~finally:(fun () -> Option.iter Pool.shutdown pool)
        (fun () ->
          List.iteri
            (fun slot p ->
              let journaled =
                match journal with
                | Some (done_rows, _) -> Hashtbl.find_opt done_rows p.p_index
                | None -> None
              in
              match journaled with
              | Some r -> record slot r ~fresh:false
              | None ->
                  let row, tel = run_local cfg ?pool ~checkpoint p in
                  note_telemetry tel;
                  record slot row ~fresh:true)
            pairs));
  let rows =
    Array.to_list results
    |> List.filter_map Fun.id
    |> List.sort (fun a b -> compare a.r_index b.r_index)
  in
  {
    rows;
    pairs_total;
    executed = !executed;
    resumed = !resumed;
    torn;
    wall_s = Unix.gettimeofday () -. t0;
    telemetry = !telemetry;
    corpus_digest = Corpus.digest ();
    kernels = List.length (Corpus.all_specs ());
  }

(* ------------------------------------------------------------------ *)
(* The fleet report                                                     *)
(* ------------------------------------------------------------------ *)

let domain_stats (rows : row list) : Json.t =
  let domains =
    List.sort_uniq compare (List.map (fun r -> r.r_domain) rows)
  in
  Json.List
    (List.map
       (fun d ->
         let dr = List.filter (fun r -> r.r_domain = d) rows in
         let ok = List.filter (fun r -> r.r_status = "ok") dr in
         let count s =
           List.length (List.filter (fun r -> r.r_status = s) dr)
         in
         let speedups =
           List.map (fun r -> r.r_speedup_pct) ok |> List.sort compare
         in
         let stats =
           match speedups with
           | [] -> []
           | ss ->
               let n = List.length ss in
               let arr = Array.of_list ss in
               let median =
                 if n mod 2 = 1 then arr.(n / 2)
                 else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0
               in
               [
                 ("speedup_min", Json.Float arr.(0));
                 ("speedup_median", Json.Float median);
                 ( "speedup_mean",
                   Json.Float (List.fold_left ( +. ) 0.0 ss /. float_of_int n)
                 );
                 ("speedup_max", Json.Float arr.(n - 1));
               ]
         in
         let flag f = List.length (List.filter f dr) in
         Json.Obj
           ([
              ("domain", Json.Str d);
              ("pairs", Json.Int (List.length dr));
              ("ok", Json.Int (List.length ok));
              ("rejected", Json.Int (count "rejected"));
              ("failed", Json.Int (count "failed"));
              ("repaired", Json.Int (flag (fun r -> r.r_repaired)));
              ( "newly_fusable",
                Json.Int (flag (fun r -> r.r_newly_fusable)) );
            ]
           @ stats))
       domains)

let report_json (cfg : config) (r : result) : Json.t =
  let t = r.telemetry in
  let get = Report.telemetry_get t in
  let failed_rows =
    List.length (List.filter (fun x -> x.r_status = "failed") r.rows)
  in
  let section name fields =
    (name, Json.Obj (List.map (fun f -> (f, Json.Int (get name f))) fields))
  in
  Json.Obj
    [
      ("bench", Json.Str "fleet");
      ("corpus_digest", Json.Str r.corpus_digest);
      ("kernels", Json.Int r.kernels);
      ("pairs_total", Json.Int r.pairs_total);
      ("shards", Json.Int cfg.shards);
      ("shard", Json.Int cfg.shard);
      ("size", Json.Int cfg.size);
      ("arch", Json.Str cfg.arch.Gpusim.Arch.name);
      ("jobs", Json.Int cfg.jobs);
      ("via_server", Json.Bool (cfg.via_server <> None));
      ( "top_k",
        match cfg.top_k with None -> Json.Null | Some k -> Json.Int k );
      ("repair", Json.Bool cfg.repair);
      ("rows_run", Json.Int (List.length r.rows));
      ( "rows_repaired",
        Json.Int
          (List.length (List.filter (fun x -> x.r_repaired) r.rows)) );
      ( "rows_newly_fusable",
        Json.Int
          (List.length (List.filter (fun x -> x.r_newly_fusable) r.rows)) );
      ("executed", Json.Int r.executed);
      ("resumed", Json.Int r.resumed);
      ("wall_s", Json.Float r.wall_s);
      ( "searches_per_min",
        Json.Float
          (if r.wall_s > 0.0 then float_of_int r.executed /. r.wall_s *. 60.0
           else 0.0) );
      section "search"
        ([
           "profiled"; "cache_hits"; "failed"; "ranked"; "pruned"; "traced";
           "trace_hits"; "trace_merged"; "repair_attempted"; "repaired";
           "repair_unsound";
         ]
         (* per-kind rejection histogram, summed across every search of
            the shard (the flat [rej_<tag>] fields of the per-request
            telemetry); fixed field set keeps the report shape stable *)
        @ List.map
            (fun tag -> "rej_" ^ tag)
            Hfuse_analysis.Diag.all_kind_tags);
      section "cache" [ "hits"; "misses"; "stores"; "quarantined" ];
      section "trace_store"
        [ "mem_hits"; "disk_hits"; "recorded"; "quarantined" ];
      section "pool" [ "failures"; "retries"; "recovered" ];
      ( "fault",
        Json.Obj
          [
            ("injected", Json.Int (get "fault" "injected"));
            ("recovered", Json.Int (get "fault" "recovered"));
            (* a fault that escapes every recovery layer surfaces as a
               failed row — under chaos, this is the gated invariant *)
            ("unrecovered", Json.Int failed_rows);
          ] );
      ( "quarantined",
        Json.Int (get "cache" "quarantined" + get "trace_store" "quarantined")
      );
      ("domains", domain_stats r.rows);
      ("rows", Json.List (List.map json_of_row r.rows));
    ]
