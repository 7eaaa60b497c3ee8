(* Bench regression gate: compare a freshly produced fig9 JSON report
   against a committed baseline and fail on any drift in the
   *simulated* metrics.  Wall-clock-derived fields (wall_s, cache,
   search and trace_store counters, engine stats, jobs) vary run to
   run and are excluded; everything the simulator computes
   deterministically —
   per-row native utilisation, speedups, chosen (d1, d2, reg_bound)
   partitions, and the five metric fields — must match exactly.

   Usage: bench_gate BASELINE.json FRESH.json [--pairs A+B,C+D]
                     [--max-regret PCT]
   With --pairs, only the named pairs are compared (the CI smoke run
   produces a single-pair report against the full committed baseline).

   The gate also reads the fresh report's cost-model quality fields
   (search.rank_agree / rank_total / max_regret_pct): when present, the
   model's worst chosen-vs-best regret must stay within --max-regret
   percent (default 2) — the bound that keeps top-K pruned searches
   honest.  Reports from before the cost model (no such fields) pass.

   Fleet mode: bench_gate --fleet BASELINE.json FRESH.json...
                          [--min-hit-rate PCT] [--min-throughput N]
   compares BENCH_fleet.json reports.  FRESH may be several shard
   reports: their rows must partition the baseline's exactly — every
   baseline index covered once, no overlap, no strays — and each row's
   deterministic fields (pair, domain, status, output digest, times,
   speedup) must match byte-for-byte, which is how CI enforces
   bit-identical results across shard counts, -j and cache
   temperature.  Corpus digests must agree (different corpus,
   incomparable rows).  Every fresh report must report zero
   unrecovered faults (fault.unrecovered — failed rows — is the chaos
   invariant).  --min-hit-rate gates the aggregate profile-cache hit
   rate (the warm-run scaling check); --min-throughput prints the
   aggregate searches/min and warns below the floor but never fails —
   wall clock is not a simulated metric.

   BASELINE may also be the committed reference rows
   (benchmark/reference/fleet_rows.json, recognised by having no
   "bench" field).  A reference covers the whole fleet under one
   configuration, so the fresh reports must match its size, arch and
   top_k, their rows need only be a subset of it, and each row is
   compared on pair, status, output digest, native and best time.
   The fresh reports must still jointly cover every row their runs
   were asked for (each report's shard of its first pairs_total
   pairs), so a shard that drops a row fails. *)

module Json = Hfuse_profiler.Report.Json

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let read_json path =
  let ic = try open_in_bin path with Sys_error e -> die "%s" e in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string s with
  | Ok v -> v
  | Error e -> die "%s: %s" path e

let member_exn path key j =
  match Json.member key j with
  | Some v -> v
  | None -> die "%s: missing field %S" path key

(* The gated (simulated, deterministic) leaves of one row. *)
let metric_fields =
  [ "time_ms"; "elapsed_cycles"; "issue_slot_util"; "mem_stall"; "occupancy" ]

let config_fields = [ "speedup_pct"; "d1"; "d2"; "reg_bound" ]

let leaf_to_string = function
  | Json.Null -> "null"
  | Json.Int i -> string_of_int i
  | Json.Float f -> Printf.sprintf "%.17g" f
  | Json.Str s -> s
  | Json.Bool b -> string_of_bool b
  | Json.List _ | Json.Obj _ -> "<structure>"

(** Flatten one row to comparable (label, value) leaves. *)
let row_leaves path (row : Json.t) : (string * string) list =
  let leaf prefix obj field =
    let v = member_exn path field obj in
    (prefix ^ "." ^ field, leaf_to_string v)
  in
  let base = [ leaf "" row "native_util" ] in
  let side name =
    match Json.member name row with
    | None -> die "%s: row missing %S" path name
    | Some cfg ->
        let cfg_leaves = List.map (leaf name cfg) config_fields in
        let metrics = member_exn path "metrics" cfg in
        let metric_leaves =
          List.map (fun f -> leaf (name ^ ".metrics") metrics f) metric_fields
        in
        cfg_leaves @ metric_leaves
  in
  base @ side "no_regcap" @ side "regcap"

let row_key path row =
  let s k =
    match member_exn path k row with
    | Json.Str s -> s
    | _ -> die "%s: row field %S is not a string" path k
  in
  (s "pair", s "arch")

let rows_of path (j : Json.t) : ((string * string) * Json.t) list =
  match member_exn path "rows" j with
  | Json.List rows -> List.map (fun r -> (row_key path r, r)) rows
  | _ -> die "%s: \"rows\" is not a list" path

(* Cost-model quality gate over the fresh report's "search" stats.
   [max_regret_pct] non-finite values arrive as JSON null and read back
   as infinity via [to_float_opt] — an infinite regret must fail, not
   vanish. *)
let check_model_quality ~(max_regret : float) path (j : Json.t) : int =
  match Json.member "search" j with
  | None -> 0
  | Some search -> (
      let int_of k =
        Option.bind (Json.member k search) (function
          | Json.Int i -> Some i
          | _ -> None)
      in
      match
        Option.bind (Json.member "max_regret_pct" search) (fun v ->
            Json.to_float_opt v)
      with
      | None -> 0 (* pre-cost-model report *)
      | Some regret ->
          let agree = Option.value (int_of "rank_agree") ~default:0 in
          let total = Option.value (int_of "rank_total") ~default:0 in
          Printf.printf
            "bench gate: model rank agreement %d/%d, max regret %s%%\n"
            agree total
            (if Float.is_finite regret then Printf.sprintf "%.3f" regret
             else "inf");
          if regret > max_regret then begin
            Printf.printf
              "REGRET %s: cost-model regret %s%% exceeds the %.2f%% bound\n"
              path
              (if Float.is_finite regret then Printf.sprintf "%.3f" regret
               else "inf")
              max_regret;
            1
          end
          else 0)

(* Informational only: surface the fresh report's trace-store traffic
   (recorded vs answered vs deduped) so cold/warm CI steps are easy to
   eyeball.  Never gated — temperature legitimately differs per run. *)
let print_trace_traffic (j : Json.t) : unit =
  match Json.member "trace_store" j with
  | None -> () (* pre-trace-store report *)
  | Some ts ->
      let int_of k =
        match Json.member k ts with Some (Json.Int i) -> i | _ -> 0
      in
      Printf.printf
        "bench gate: trace store %d recorded, %d hit(s) (%d mem + %d disk), \
         %d merged (not gated)\n"
        (int_of "recorded")
        (int_of "mem_hits" + int_of "disk_hits")
        (int_of "mem_hits") (int_of "disk_hits") (int_of "merges")

(* ------------------------------------------------------------------ *)
(* Fleet mode                                                           *)
(* ------------------------------------------------------------------ *)

(* The deterministic leaves of one fleet row: everything except wall
   time, which fleet reports deliberately keep out of rows. *)
let fleet_row_fields =
  [ "pair"; "domain"; "status"; "digest"; "native_ms"; "best_ms"; "speedup_pct" ]

(* Deterministic too, but absent from pre-repair baselines: compare
   with a [false] default so old baselines stay comparable. *)
let fleet_row_bool_fields = [ "repaired"; "newly_fusable" ]

(* A committed reference baseline: its rows carry only these fields,
   under one run configuration. *)
let is_reference (j : Json.t) = Json.member "bench" j = None
let reference_row_fields =
  [ "pair"; "status"; "digest"; "native_ms"; "best_ms" ]
let reference_config_fields = [ "size"; "arch"; "top_k" ]

let fleet_rows_of path (j : Json.t) : (int * Json.t) list =
  match member_exn path "rows" j with
  | Json.List rows ->
      List.map
        (fun r ->
          match member_exn path "i" r with
          | Json.Int i -> (i, r)
          | _ -> die "%s: row field \"i\" is not an integer" path)
        rows
  | _ -> die "%s: \"rows\" is not a list" path

let fleet_int path key j =
  match Json.member key j with
  | Some (Json.Int i) -> i
  | _ -> die "%s: missing integer field %S" path key

let fleet_str path key j =
  match Json.member key j with
  | Some (Json.Str s) -> s
  | _ -> die "%s: missing string field %S" path key

let run_fleet_gate ~baseline_path ~fresh_paths ~min_hit_rate ~min_throughput =
  let baseline_json = read_json baseline_path in
  let baseline = fleet_rows_of baseline_path baseline_json in
  let base_digest = fleet_str baseline_path "corpus_digest" baseline_json in
  let reference = is_reference baseline_json in
  let row_fields =
    if reference then reference_row_fields else fleet_row_fields
  in
  let bool_fields = if reference then [] else fleet_row_bool_fields in
  let drift = ref 0 in
  let seen : (int, string) Hashtbl.t = Hashtbl.create 1024 in
  (* the row indices the fresh runs were asked for, against a reference *)
  let asked : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let hits = ref 0 and misses = ref 0 in
  let throughput = ref 0.0 in
  List.iter
    (fun path ->
      let j = read_json path in
      let digest = fleet_str path "corpus_digest" j in
      if digest <> base_digest then
        die "%s: corpus digest %s differs from baseline %s — incomparable rows"
          path digest base_digest;
      if reference then
        List.iter
          (fun field ->
            let leaf p j = leaf_to_string (member_exn p field j) in
            let bv = leaf baseline_path baseline_json and fv = leaf path j in
            if bv <> fv then
              die
                "%s: %s %s differs from the reference's %s — incomparable \
                 rows"
                path field fv bv)
          reference_config_fields;
      (if reference then
         let shards = fleet_int path "shards" j
         and shard = fleet_int path "shard" j in
         for i = 0 to fleet_int path "pairs_total" j - 1 do
           if i mod shards = shard then Hashtbl.replace asked i ()
         done);
      let unrecovered =
        match Json.member "fault" j with
        | Some f -> fleet_int path "unrecovered" f
        | None -> die "%s: missing \"fault\" section" path
      in
      if unrecovered > 0 then begin
        incr drift;
        Printf.printf "FAULT %s: %d unrecovered fault(s) (failed rows)\n" path
          unrecovered
      end;
      (* Repair soundness invariant: every oracle-refuted repair must
         fail closed, so the summed counter must be exactly zero.
         Absent on pre-repair reports. *)
      (match Json.member "search" j with
      | Some search -> (
          let int_of k =
            match Json.member k search with Some (Json.Int i) -> i | _ -> 0
          in
          match Json.member "repair_unsound" search with
          | Some (Json.Int u) ->
              if int_of "repair_attempted" > 0 then
                Printf.printf
                  "bench gate: fleet repair %d attempted, %d admitted, %d \
                   unsound\n"
                  (int_of "repair_attempted") (int_of "repaired") u;
              if u > 0 then begin
                incr drift;
                Printf.printf
                  "UNSOUND %s: %d repair(s) refuted by the differential \
                   oracle\n"
                  path u
              end
          | _ -> ())
      | None -> ());
      (match Json.member "cache" j with
      | Some c ->
          hits := !hits + fleet_int path "hits" c;
          misses := !misses + fleet_int path "misses" c
      | None -> ());
      (match
         Option.bind (Json.member "searches_per_min" j) Json.to_float_opt
       with
      | Some t -> throughput := !throughput +. t
      | None -> ());
      List.iter
        (fun (i, row) ->
          (if Hashtbl.mem seen i then begin
             incr drift;
             Printf.printf "OVERLAP row %d: in both %s and %s\n" i
               (Hashtbl.find seen i) path
           end);
          Hashtbl.replace seen i path;
          match List.assoc_opt i baseline with
          | None ->
              incr drift;
              Printf.printf "DRIFT %s row %d: not in baseline\n" path i
          | Some base_row ->
              List.iter
                (fun field ->
                  let bv = leaf_to_string (member_exn baseline_path field base_row) in
                  let fv = leaf_to_string (member_exn path field row) in
                  if bv <> fv then begin
                    incr drift;
                    Printf.printf "DRIFT row %d %s: baseline %s, fresh %s\n" i
                      field bv fv
                  end)
                row_fields;
              List.iter
                (fun field ->
                  let default_false o =
                    match Json.member field o with
                    | Some v -> leaf_to_string v
                    | None -> "false"
                  in
                  let bv = default_false base_row and fv = default_false row in
                  if bv <> fv then begin
                    incr drift;
                    Printf.printf "DRIFT row %d %s: baseline %s, fresh %s\n" i
                      field bv fv
                  end)
                bool_fields)
        (fleet_rows_of path j))
    fresh_paths;
  (* coverage: the fresh shards must union to exactly the baseline, or
     to every row of a reference their runs were asked for *)
  if reference then begin
    if Hashtbl.length seen = 0 then begin
      incr drift;
      Printf.printf "MISSING: no fresh rows to compare with the reference\n"
    end;
    List.iter
      (fun i ->
        if not (Hashtbl.mem seen i) then begin
          incr drift;
          Printf.printf "MISSING row %d: asked of a fresh run but in no report\n"
            i
        end)
      (List.sort compare (List.of_seq (Hashtbl.to_seq_keys asked)))
  end
  else
    List.iter
      (fun (i, _) ->
        if not (Hashtbl.mem seen i) then begin
          incr drift;
          Printf.printf "MISSING row %d: in baseline but no fresh shard\n" i
        end)
      baseline;
  (match min_hit_rate with
  | None -> ()
  | Some floor ->
      let total = !hits + !misses in
      let rate =
        if total = 0 then 0.0
        else 100.0 *. float_of_int !hits /. float_of_int total
      in
      Printf.printf "bench gate: fleet cache hit rate %.1f%% (%d/%d)\n" rate
        !hits total;
      if rate < floor then begin
        incr drift;
        Printf.printf "HITRATE: %.1f%% below the %.1f%% floor\n" rate floor
      end);
  (match min_throughput with
  | None -> ()
  | Some floor ->
      Printf.printf
        "bench gate: fleet throughput %.1f searches/min (informational%s)\n"
        !throughput
        (if !throughput < floor then
           Printf.sprintf "; below the %.1f floor — NOT gated" floor
         else ""));
  if !drift > 0 then begin
    Printf.printf "bench gate: %d fleet violation(s) across %d fresh row(s)\n"
      !drift (Hashtbl.length seen);
    exit 1
  end;
  if reference then
    Printf.printf
      "bench gate: %d fleet row(s) match the reference (%d report(s))\n"
      (Hashtbl.length seen) (List.length fresh_paths)
  else
    Printf.printf
      "bench gate: %d fleet row(s) partition the baseline exactly (%d shard \
       report(s))\n"
      (Hashtbl.length seen) (List.length fresh_paths)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let usage () =
    die
      "usage: %s BASELINE.json FRESH.json [--pairs A+B,C+D] [--max-regret \
       PCT]\n\
      \       %s --fleet BASELINE.json FRESH.json... [--min-hit-rate PCT] \
       [--min-throughput N]"
      Sys.executable_name Sys.executable_name
  in
  let positional = ref [] in
  let pairs_filter = ref None in
  let max_regret = ref 2.0 in
  let fleet_mode = ref false in
  let min_hit_rate = ref None in
  let min_throughput = ref None in
  let rec parse = function
    | [] -> ()
    | "--pairs" :: ps :: rest ->
        pairs_filter := Some (String.split_on_char ',' ps);
        parse rest
    | "--max-regret" :: p :: rest ->
        (match float_of_string_opt p with
        | Some v when v >= 0.0 -> max_regret := v
        | _ -> die "bench_gate: --max-regret expects a percentage, got %s" p);
        parse rest
    | "--fleet" :: rest ->
        fleet_mode := true;
        parse rest
    | "--min-hit-rate" :: p :: rest ->
        (match float_of_string_opt p with
        | Some v when v >= 0.0 -> min_hit_rate := Some v
        | _ -> die "bench_gate: --min-hit-rate expects a percentage, got %s" p);
        parse rest
    | "--min-throughput" :: p :: rest ->
        (match float_of_string_opt p with
        | Some v when v >= 0.0 -> min_throughput := Some v
        | _ ->
            die "bench_gate: --min-throughput expects a number, got %s" p);
        parse rest
    | a :: _ when String.length a > 1 && a.[0] = '-' ->
        die "bench_gate: unknown flag %s" a
    | a :: rest ->
        positional := a :: !positional;
        parse rest
  in
  parse args;
  if !fleet_mode then begin
    match List.rev !positional with
    | baseline_path :: (_ :: _ as fresh_paths) ->
        run_fleet_gate ~baseline_path ~fresh_paths
          ~min_hit_rate:!min_hit_rate ~min_throughput:!min_throughput;
        exit 0
    | _ -> usage ()
  end;
  let baseline_path, fresh_path =
    match List.rev !positional with [ b; f ] -> (b, f) | _ -> usage ()
  in
  let pairs_filter = !pairs_filter in
  let baseline = rows_of baseline_path (read_json baseline_path) in
  let fresh_json = read_json fresh_path in
  let fresh = rows_of fresh_path fresh_json in
  let wanted (pair, _arch) =
    match pairs_filter with
    | None -> true
    | Some ps -> List.mem pair ps
  in
  let fresh = List.filter (fun (k, _) -> wanted k) fresh in
  if fresh = [] then die "%s: no rows to compare" fresh_path;
  let drift = ref 0 in
  let compared = ref 0 in
  List.iter
    (fun ((pair, arch), fresh_row) ->
      match List.assoc_opt (pair, arch) baseline with
      | None ->
          incr drift;
          Printf.printf "DRIFT %s/%s: not in baseline\n" pair arch
      | Some base_row ->
          incr compared;
          let b = row_leaves baseline_path base_row in
          let f = row_leaves fresh_path fresh_row in
          List.iter2
            (fun (label, bv) (label', fv) ->
              assert (label = label');
              if bv <> fv then begin
                incr drift;
                Printf.printf "DRIFT %s/%s %s: baseline %s, fresh %s\n" pair
                  arch label bv fv
              end)
            b f)
    fresh;
  let regret_failures =
    check_model_quality ~max_regret:!max_regret fresh_path fresh_json
  in
  print_trace_traffic fresh_json;
  if !drift > 0 || regret_failures > 0 then begin
    if !drift > 0 then
      Printf.printf "bench gate: %d drifting value(s) across %d row(s)\n"
        !drift !compared;
    exit 1
  end;
  Printf.printf
    "bench gate: %d row(s) match the baseline (simulated metrics only)\n"
    !compared
