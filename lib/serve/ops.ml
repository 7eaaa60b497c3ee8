(* The verb engine shared by the one-shot CLI and the daemon.

   Every serving verb (fuse / check / simulate / search) is a pure-ish
   function from typed parameters to an {!outcome}: the deterministic
   stdout payload, the stderr log (diagnostics and wall-clock stats),
   an exit code, and structured telemetry.  The CLI prints the outcome
   and exits with its code; the daemon serialises it into a response —
   both paths run the exact same body, which is what makes the
   daemon's answers byte-identical to the one-shot CLI's stdout.

   Daemon-safety rules (DESIGN.md): nothing here calls [exit], writes
   to the process's std channels, or mutates hidden global
   configuration; per-request knobs arrive as an explicit
   {!Hfuse_profiler.Settings.t} and per-request counters leave in
   [telemetry], read from the ledger the verb ran under. *)

module Json = Hfuse_profiler.Report.Json
module Runner = Hfuse_profiler.Runner
module Settings = Hfuse_profiler.Settings
module Report = Hfuse_profiler.Report
module Checkpoint = Hfuse_profiler.Checkpoint
module Trace_store = Hfuse_profiler.Trace_store
module Fault = Hfuse_fault.Fault

type outcome = {
  output : string;  (** deterministic stdout payload *)
  log : string;  (** stderr: diagnostics, wall-clock stats *)
  exit_code : int;
  telemetry : Json.t;  (** per-request counters (cache/pool/fault/…) *)
}

let fail ?(output = "") code log =
  { output; log; exit_code = code; telemetry = Json.Obj [] }

(* ------------------------------------------------------------------ *)
(* Parameters                                                           *)
(* ------------------------------------------------------------------ *)

(** A kernel source as shipped to the engine: the CLI reads the file,
    the daemon receives it inline ([ks_path] only labels diagnostics). *)
type kernel_src = {
  ks_path : string;
  ks_source : string;
  ks_block : int;
  ks_smem : int;
  ks_regs : int option;
}

type fuse_params = { f_k1 : kernel_src; f_k2 : kernel_src; f_grid : int }

type check_params = {
  c_arch : Gpusim.Arch.t;
  c_k1 : kernel_src;
  c_k2 : kernel_src option;
  c_grid : int;
  c_repair : bool;
      (** on rejection, run the repair engine and report the repaired
          verdict.  Static-only: [check] has no workload to execute, so
          this previews the transformation without the differential
          soundness gate — admission paths ([search], the fleet) always
          gate *)
}

type simulate_params = {
  m_arch : Gpusim.Arch.t;
  m_kernel : Kernel_corpus.Spec.t;
  m_size : int option;
  m_validate : bool;
  m_engine_stats : bool;
}

type search_params = {
  s_arch : Gpusim.Arch.t;
  s_k1 : Kernel_corpus.Spec.t;
  s_k2 : Kernel_corpus.Spec.t;
  s_size1 : int option;
  s_size2 : int option;
  s_emit : bool;
  s_jobs : int;
  s_top_k : int option;
  s_repair : bool;
      (** hand verifier-rejected partitions to the repair engine;
          repaired candidates are admitted only after the differential
          soundness oracle passes *)
}

type request_params =
  | Fuse of fuse_params
  | Check of check_params
  | Simulate of simulate_params
  | Search of search_params

let verb_name = function
  | Fuse _ -> "fuse"
  | Check _ -> "check"
  | Simulate _ -> "simulate"
  | Search _ -> "search"

(* ------------------------------------------------------------------ *)
(* Source-to-kernel front end (mirrors the CLI's file path)             *)
(* ------------------------------------------------------------------ *)

let info_of_src (k : kernel_src) ~(grid : int) :
    (Hfuse_core.Kernel_info.t, string) result =
  match Cuda.Parser.parse_kernel k.ks_source with
  | exception Cuda.Parser.Error (msg, loc) ->
      Error (Fmt.str "%s:%a: %s" k.ks_path Cuda.Loc.pp loc msg)
  | exception Cuda.Lexer.Error (msg, loc) ->
      Error (Fmt.str "%s:%a: %s" k.ks_path Cuda.Loc.pp loc msg)
  | exception Failure msg -> Error (k.ks_path ^ ": " ^ msg)
  | prog, fn -> (
      match Cuda.Typecheck.check_program prog with
      | exception Cuda.Typecheck.Error (msg, loc) ->
          Error
            (Fmt.str "%s:%s: %s" k.ks_path (Cuda.Loc.to_string loc) msg)
      | () ->
          let regs =
            match k.ks_regs with
            | Some r -> r
            | None -> Gpusim.Resource_model.estimate_fn fn
          in
          Ok
            {
              Hfuse_core.Kernel_info.fn;
              prog;
              block = (k.ks_block, 1, 1);
              grid;
              smem_dynamic = k.ks_smem;
              regs;
              tunability = Hfuse_core.Kernel_info.Fixed;
            })

(* ------------------------------------------------------------------ *)
(* fuse                                                                 *)
(* ------------------------------------------------------------------ *)

let fuse (p : fuse_params) : outcome =
  match
    (info_of_src p.f_k1 ~grid:p.f_grid, info_of_src p.f_k2 ~grid:p.f_grid)
  with
  | Error e, _ | _, Error e -> fail 1 ("hfuse: " ^ e ^ "\n")
  | Ok k1, Ok k2 -> (
      match Hfuse_core.Hfuse.generate k1 k2 with
      | fused ->
          {
            output = Hfuse_core.Hfuse.to_source fused ^ "\n";
            log =
              Printf.sprintf
                "// fused: %d+%d threads, barriers %d/%d, ~%d regs, %dB \
                 dynamic smem\n"
                fused.d1 fused.d2 fused.bar1 fused.bar2 fused.regs
                fused.smem_dynamic;
            exit_code = 0;
            telemetry = Json.Obj [];
          }
      | exception Hfuse_core.Fuse_common.Fusion_error msg ->
          fail 1 ("hfuse: " ^ msg ^ "\n")
      | exception Hfuse_analysis.Diag.Unsafe_fusion ds ->
          fail 1
            ("hfuse: unsafe fusion\n" ^ Hfuse_analysis.Diag.report_to_string ds))

(* ------------------------------------------------------------------ *)
(* check                                                                *)
(* ------------------------------------------------------------------ *)

(* [check --repair] rendering: the original (rejecting) report, one
   [repair[tag]: detail] line per applied transformation, then the
   re-verified report of the repaired kernel.  Static-only by design —
   [check] has no workload to run the differential oracle against, so
   the exit code says "statically repairable", not "sound". *)
let check_repaired (b : Buffer.t)
    (r : (Hfuse_repair.Repair.action list * Hfuse_analysis.Diag.t list,
          Hfuse_repair.Repair.failure)
         result) : outcome =
  match r with
  | Ok (actions, residual) ->
      List.iter
        (fun a ->
          Buffer.add_string b (Fmt.str "%a\n" Hfuse_repair.Repair.pp_action a))
        actions;
      Buffer.add_string b (Hfuse_analysis.Diag.report_to_string residual);
      {
        output = Buffer.contents b;
        log = "";
        exit_code = 0;
        telemetry = Json.Obj [];
      }
  | Error f ->
      Buffer.add_string b
        (Fmt.str "repair: %a\n" Hfuse_repair.Repair.pp_failure f);
      {
        output = Buffer.contents b;
        log = "";
        exit_code = 1;
        telemetry = Json.Obj [];
      }

let check (p : check_params) : outcome =
  let limits = Gpusim.Arch.sm_limits p.c_arch in
  let report diags =
    {
      output = Hfuse_analysis.Diag.report_to_string diags;
      log = "";
      exit_code = (if Hfuse_analysis.Diag.is_clean diags then 0 else 1);
      telemetry = Json.Obj [];
    }
  in
  match p.c_k2 with
  | None -> (
      (* single-kernel mode: verify the file as-is (it may already
         contain bar.sync barriers from an earlier fusion) *)
      match info_of_src p.c_k1 ~grid:p.c_grid with
      | Error e -> fail 1 ("hfuse: " ^ e ^ "\n")
      | Ok k ->
          let body =
            (Hfuse_frontend.Inline.normalize_kernel k.prog k.fn).f_body
          in
          let threads = Hfuse_core.Kernel_info.threads_per_block k in
          let diags =
            Hfuse_analysis.Verifier.verify_kernel ~limits
              ~label:k.fn.Cuda.Ast.f_name ~threads ~regs:k.regs
              ~smem_dynamic:k.smem_dynamic body
          in
          if Hfuse_analysis.Diag.is_clean diags || not p.c_repair then
            report diags
          else begin
            let b = Buffer.create 512 in
            Buffer.add_string b (Hfuse_analysis.Diag.report_to_string diags);
            let side =
              Hfuse_analysis.Verifier.side ~label:k.fn.Cuda.Ast.f_name
                ~count:threads body
            in
            check_repaired b
              (Result.map
                 (fun (r : Hfuse_repair.Repair.sides_repaired) ->
                   (r.r_actions, r.r_residual))
                 (Hfuse_repair.Repair.repair_sides ~limits ~threads
                    ~regs:k.regs ~smem_dynamic:k.smem_dynamic [ side ]))
          end)
  | Some k2 -> (
      (* pair mode: fuse (verifier disabled) and report on the
         result, instead of dying on the first error *)
      match
        (info_of_src p.c_k1 ~grid:p.c_grid, info_of_src k2 ~grid:p.c_grid)
      with
      | Error e, _ | _, Error e -> fail 1 ("hfuse: " ^ e ^ "\n")
      | Ok k1, Ok k2 -> (
          match Hfuse_core.Hfuse.generate ~check:false ~limits k1 k2 with
          | exception Hfuse_core.Fuse_common.Fusion_error msg ->
              fail 1 ("hfuse: " ^ msg ^ "\n")
          | fused ->
              let diags = Hfuse_core.Hfuse.verify ~limits fused in
              if Hfuse_analysis.Diag.is_clean diags || not p.c_repair then
                report diags
              else begin
                let b = Buffer.create 512 in
                Buffer.add_string b
                  (Hfuse_analysis.Diag.report_to_string diags);
                check_repaired b
                  (Result.map
                     (fun (r : Hfuse_repair.Repair.repaired) ->
                       (r.actions, r.residual))
                     (Hfuse_repair.Repair.attempt ~limits k1 k2))
              end))

(* ------------------------------------------------------------------ *)
(* simulate                                                             *)
(* ------------------------------------------------------------------ *)

let simulate ~settings:(s : Settings.t) (p : simulate_params) : outcome =
  let spec = p.m_kernel in
  let size = Option.value p.m_size ~default:spec.default_size in
  let mem = Gpusim.Memory.create () in
  let c = Runner.configure mem spec ~size in
  let specs = [ Runner.spec_of ~settings:s c ~stream:0 () ] in
  let (r, es), ledger =
    Ledger.run (fun () -> Gpusim.Timing.run_with_stats p.m_arch specs)
  in
  let b = Buffer.create 512 in
  Buffer.add_string b (Gpusim.Metrics.header ^ "\n");
  Buffer.add_string b
    (Gpusim.Metrics.row (Gpusim.Metrics.of_report ~label:spec.name r) ^ "\n");
  if p.m_engine_stats then
    Buffer.add_string b
      (Printf.sprintf "engine: %s\n"
         (Fmt.str "%a" Gpusim.Timing.pp_engine_stats es));
  let telemetry =
    Json.Obj [ ("engine", Report.json_of_section ledger "engine") ]
  in
  if not p.m_validate then
    { output = Buffer.contents b; log = ""; exit_code = 0; telemetry }
  else begin
    let mem2 = Gpusim.Memory.create () in
    let inst = spec.instantiate mem2 ~size in
    let info = Kernel_corpus.Spec.kernel_info spec inst in
    ignore
      (Gpusim.Launch.launch_info ?fault:s.Settings.fault
         ~loop_fuel:s.Settings.sim_fuel mem2 info ~args:inst.args
         ~trace_blocks:0);
    match inst.check mem2 with
    | Ok () ->
        Buffer.add_string b "outputs match the host reference\n";
        { output = Buffer.contents b; log = ""; exit_code = 0; telemetry }
    | Error e ->
        {
          output = Buffer.contents b;
          log = "validation failed: " ^ e ^ "\n";
          exit_code = 1;
          telemetry;
        }
  end

(* ------------------------------------------------------------------ *)
(* search                                                               *)
(* ------------------------------------------------------------------ *)

let reg_bound_str = function
  | None -> "unbounded"
  | Some r -> Printf.sprintf "r0=%d" r

let search ~settings:(s : Settings.t) ?(checkpoint = Checkpoint.disabled)
    ?pool (p : search_params) : outcome =
  let arch = p.s_arch in
  (* per-request counters: a fresh cache handle (shared by the size
     probe, the native baseline and the search), and a ledger for
     everything the request does, on any domain *)
  let cache = Settings.cache s in
  let (sr, native), ledger =
    Ledger.run @@ fun () ->
    let size1, size2 =
      Hfuse_profiler.Experiment.pair_sizes ~settings:s ~cache ~checkpoint arch
        (p.s_k1, p.s_size1) (p.s_k2, p.s_size2)
    in
    let mem = Gpusim.Memory.create () in
    let c1 = Runner.configure mem p.s_k1 ~size:size1 in
    let c2 = Runner.configure mem p.s_k2 ~size:size2 in
    (* the search first: a pair the verifier rejects raises before the
       native baseline replays or records anything *)
    let sr =
      Runner.search ~jobs:p.s_jobs ?pool ~settings:s ~cache ~checkpoint
        ?top_k:p.s_top_k ~repair:p.s_repair arch c1 c2
    in
    ( sr,
      (Runner.native ~settings:s ~cache ~checkpoint arch c1 c2)
        .Gpusim.Timing.time_ms )
  in
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "native: %.4f ms\n" native;
  let scores =
    match sr.scores with
    | [] -> List.map (fun _ -> None) sr.all
    | ss -> List.map Option.some ss
  in
  List.iter2
    (fun (cand : Hfuse_core.Search.candidate) score ->
      add "%5d/%-5d %-9s %.4f ms (%+.1f%%)%s%s\n" cand.fused.d1 cand.fused.d2
        (reg_bound_str cand.config.reg_bound)
        cand.time
        (100.0 *. ((native /. cand.time) -. 1.0))
        (match score with
        | None -> ""
        | Some sc -> Printf.sprintf "  [model %.4g]" sc)
        (if cand.repaired then "  [repaired]" else ""))
    sr.all scores;
  List.iter
    (fun ((f : Hfuse_core.Hfuse.t), (cfg : Hfuse_core.Search.config), score) ->
      add "%5d/%-5d %-9s pruned (model score %.4g)\n" f.d1 f.d2
        (reg_bound_str cfg.reg_bound)
        score)
    sr.pruned;
  let best = sr.best in
  add "best: %d/%d %s\n" best.fused.d1 best.fused.d2
    (reg_bound_str best.config.reg_bound);
  (* deterministic repair summary (only under --repair, so the default
     output stays byte-identical): "newly fusable" flags a pair whose
     every candidate came through repair — without it the search would
     have rejected every partition and raised *)
  if p.s_repair then
    add "repaired: %d partition(s), rejected: %d%s\n" sr.repaired
      (List.length sr.rejected)
      (if sr.admitted = 0 && sr.repaired > 0 then ", newly fusable" else "");
  if p.s_emit then add "%s\n" (Hfuse_core.Hfuse.to_source best.fused);
  let lb = Buffer.create 256 in
  Printf.ksprintf (Buffer.add_string lb) "search: %s\n"
    (Fmt.str "%a" Runner.pp_search_stats ledger);
  Printf.ksprintf (Buffer.add_string lb) "trace store: %s\n"
    (Fmt.str "%a" Trace_store.pp_tally ledger);
  if s.Settings.fault <> None then
    Printf.ksprintf (Buffer.add_string lb) "fault: %s\n"
      (Fmt.str "%a" Fault.pp_tally ledger);
  {
    output = Buffer.contents b;
    log = Buffer.contents lb;
    exit_code = 0;
    telemetry =
      Json.Obj
        [
          ("search", Report.json_of_section ledger "search");
          ("cache", Report.json_of_cache cache);
          ("trace_store", Report.json_of_trace_store ledger);
          ("pool", Report.json_of_section ledger "pool");
          ("fault", Report.json_of_section ledger "fault");
        ];
  }

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)
(* ------------------------------------------------------------------ *)

let run ?settings ?checkpoint ?pool (p : request_params) : outcome =
  let settings () =
    match settings with Some s -> s | None -> Settings.resolve ()
  in
  match p with
  | Fuse p -> fuse p
  | Check p -> check p
  | Simulate p -> simulate ~settings:(settings ()) p
  | Search p -> search ~settings:(settings ()) ?checkpoint ?pool p
