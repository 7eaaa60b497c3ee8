(* hfuse — command-line front end.

     hfuse fuse a.cu b.cu --d1 896 --d2 128     horizontally fuse two files
     hfuse vfuse a.cu b.cu --block 512          vertically fuse two files
     hfuse check a.cu [b.cu]                    fusion-safety verifier report
     hfuse info a.cu                            parse/typecheck + resources
     hfuse corpus                               list benchmark kernels/pairs
     hfuse simulate --kernel Batchnorm          run a corpus kernel
     hfuse search --k1 Batchnorm --k2 Hist      Fig. 6 search on a pair

   Fusing arbitrary .cu files is purely source-to-source (no profiling:
   profiling needs launchable workloads, which only the corpus kernels
   carry). *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let or_die = function
  | Ok x -> x
  | Error msg ->
      Printf.eprintf "hfuse: %s\n" msg;
      exit 1

let parse_kernel_file path =
  match Cuda.Parser.parse_kernel (read_file path) with
  | pk -> Ok pk
  | exception Cuda.Parser.Error (msg, loc) ->
      Error (Fmt.str "%s:%a: %s" path Cuda.Loc.pp loc msg)
  | exception Cuda.Lexer.Error (msg, loc) ->
      Error (Fmt.str "%s:%a: %s" path Cuda.Loc.pp loc msg)
  | exception Failure msg -> Error (path ^ ": " ^ msg)

let info_of_file path ~block ~grid ~smem_dynamic ~regs : Hfuse_core.Kernel_info.t =
  let prog, fn = or_die (parse_kernel_file path) in
  (match Cuda.Typecheck.check_program prog with
  | () -> ()
  | exception Cuda.Typecheck.Error (msg, loc) ->
      Printf.eprintf "hfuse: %s:%s: %s\n" path (Cuda.Loc.to_string loc) msg;
      exit 1);
  let regs =
    match regs with Some r -> r | None -> Gpusim.Resource_model.estimate_fn fn
  in
  { fn; prog; block = (block, 1, 1); grid; smem_dynamic; regs;
    tunability = Hfuse_core.Kernel_info.Fixed }

(* -- daemon routing ----------------------------------------------------- *)

module Ops = Hfuse_serve.Ops
module Protocol = Hfuse_serve.Protocol
module Settings = Hfuse_profiler.Settings

(* The run's one settings value: the flags given, the environment for
   the rest.  Exit-code policy lives here, not in the library: a
   malformed HFUSE_FAULT raises [Invalid_spec], and only the CLI turns
   it into the usage exit, before any work (a daemon maps it to an
   error response instead). *)
let settings ?trace_blocks ?cache_dir ?fault () =
  try Settings.resolve ?trace_blocks ?cache_dir ?fault ()
  with Hfuse_fault.Fault.Invalid_spec msg ->
    Printf.eprintf "hfuse: %s\n" msg;
    exit 2

let kernel_src_of_file path ~block ~smem ~regs : Ops.kernel_src =
  { Ops.ks_path = path; ks_source = read_file path; ks_block = block;
    ks_smem = smem; ks_regs = regs }

(* print an outcome the way the in-line verb bodies used to: payload to
   stdout, diagnostics to stderr, then the verb's exit code *)
let finish (o : Ops.outcome) =
  print_string o.Ops.output;
  prerr_string o.Ops.log;
  if o.Ops.exit_code <> 0 then exit o.Ops.exit_code

(* When HFUSE_SERVER names a daemon socket, route the verb there with
   the CLI's settings (the fault plan travels as a spec string);
   otherwise run in process.  Both paths execute the same [Ops] body
   under the same settings, so the bytes on stdout are identical either
   way. *)
let route ~settings (params : Ops.request_params) : Ops.outcome =
  match Hfuse_serve.Client.default_socket () with
  | None -> Ops.run ~settings params
  | Some socket -> (
      let req =
        { Protocol.id = "cli"; priority = 0;
          settings = Protocol.spec_of_settings settings;
          verb = Protocol.Work params }
      in
      match Hfuse_serve.Client.call ~socket req with
      | Error msg ->
          Printf.eprintf "hfuse: %s\n" msg;
          exit 3
      | Ok (Protocol.Failure f)
        when String.equal f.code (Protocol.code_name Protocol.All_failed) ->
          Ops.all_failed f.message
      | Ok (Protocol.Failure f) ->
          Printf.eprintf "hfuse: server: %s (%s)\n" f.message f.code;
          exit 1
      | Ok (Protocol.Result r) ->
          { Ops.output = r.output; log = r.log; exit_code = r.exit_code;
            telemetry = r.telemetry })

(* -- common args ------------------------------------------------------- *)

let arch_arg =
  let arch_conv =
    Arg.conv'
      ( (fun s ->
          match Gpusim.Arch.by_name s with
          | Some a -> Ok a
          | None -> Error ("unknown architecture " ^ s)),
        fun ppf a -> Fmt.string ppf a.Gpusim.Arch.name )
  in
  Arg.(
    value
    & opt arch_conv Gpusim.Arch.gtx1080ti
    & info [ "arch" ] ~docv:"ARCH" ~doc:"GPU model: 1080Ti or V100.")

let grid_arg =
  Arg.(value & opt int 8 & info [ "grid" ] ~docv:"N" ~doc:"Grid dimension.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Profile search candidates over $(docv) parallel domains \
           (missing traces are recorded concurrently too, deduped per \
           distinct key; results are identical for any N).")

(* --trace-blocks N widens the per-launch traced-block count (default 1,
   or the HFUSE_TRACE_BLOCKS environment) *)
let trace_blocks_arg =
  let check = function
    | Some n when n < 1 ->
        Printf.eprintf "hfuse: --trace-blocks expects N >= 1, got %d\n" n;
        exit 2
    | tb -> tb
  in
  Term.(
    const check
    $ Arg.(
        value
        & opt (some int) None
        & info [ "trace-blocks" ] ~docv:"N"
            ~doc:
              "Record $(docv) blocks' traces per profiling launch \
               (default 1, the paper's one-representative-block \
               methodology, or $(b,HFUSE_TRACE_BLOCKS))."))

(* --cache / --no-cache override the HFUSE_CACHE / HFUSE_CACHE_DIR
   environment; with neither flag nor environment, the cache is off.
   Resolves to a cache-root override ([None]: no flag), not a handle:
   the root goes into the run's settings (and over the wire when
   routed), and the verb body opens its own handle from it. *)
let cache_dir_arg =
  let use =
    Arg.(
      value & flag
      & info [ "cache" ]
          ~doc:
            "Enable the persistent profiling cache (default directory \
             $(b,_hfuse_cache), or $(b,HFUSE_CACHE_DIR)).")
  in
  let no =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the persistent profiling cache, overriding the \
                environment.")
  in
  let resolve use no : string option option =
    if no then Some None
    else if use then Some (Some (Settings.cache_root ()))
    else None
  in
  Term.(const resolve $ use $ no)

(* --fault SPEC arms the deterministic chaos harness (overrides the
   HFUSE_FAULT environment); malformed specs abort before any work *)
let fault_arg =
  let parse =
    Option.map (fun spec ->
        try Hfuse_fault.Fault.plan_of_spec spec
        with Hfuse_fault.Fault.Invalid_spec msg ->
          Printf.eprintf "hfuse: --fault: %s\n" msg;
          exit 2)
  in
  Term.(
    const parse
    $ Arg.(
        value
        & opt (some string) None
        & info [ "fault" ] ~docv:"SPEC"
            ~doc:
              "Inject deterministic faults, e.g. \
               $(b,worker_crash:0.05,cache_corrupt:0.1,sim_hang:0.02)[,seed:N]. \
               Faults are recovered transparently; results are unchanged. \
               Overrides $(b,HFUSE_FAULT)."))

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Make the run resumable: without a cache, profile into the \
           run's own root $(b,_hfuse_cache/journal/<run_id>/), so a rerun \
           after an interruption recomputes only the remainder \
           (bit-identical to an uninterrupted run).  With a cache \
           enabled, the cache already serves that purpose.")

(* --prune / --top-k K: phase-1.5 analytical pruning of the Fig. 6
   search.  --top-k implies --prune; --prune alone uses the default K. *)
let default_top_k = Hfuse_costmodel.default_top_k

let prune_arg =
  let prune =
    Arg.(
      value & flag
      & info [ "prune" ]
          ~doc:
            (Printf.sprintf
               "Rank candidates with the analytical cost model and \
                profile only the top K (default K = %d; see \
                $(b,--top-k)).  Without pruning the search is \
                exhaustive and the model only reports rank agreement \
                and regret."
               default_top_k))
  in
  let top_k =
    Arg.(
      value
      & opt (some int) None
      & info [ "top-k" ] ~docv:"K"
          ~doc:
            "Profile only the $(docv) best-scored candidates (implies \
             $(b,--prune)).  A K at or above the candidate count is \
             bit-identical to the exhaustive search.")
  in
  let resolve prune top_k =
    match top_k with
    | Some k when k < 1 ->
        Printf.eprintf "hfuse: --top-k expects K >= 1, got %d\n" k;
        exit 2
    | Some k -> Some k
    | None -> if prune then Some default_top_k else None
  in
  Term.(const resolve $ prune $ top_k)

(* The pruning configuration changes which candidates are profiled, so
   it is part of a resumable run's identity (as is [--repair], which
   adds candidates). *)
let prune_id_part = function
  | None -> "exhaustive"
  | Some k -> "top" ^ string_of_int k

(* -- fuse --------------------------------------------------------------- *)

let fuse_cmd =
  let run f1 f2 d1 d2 smem1 smem2 regs1 regs2 grid =
    finish
      (route ~settings:(settings ())
         (Ops.Fuse
            {
              f_k1 = kernel_src_of_file f1 ~block:d1 ~smem:smem1 ~regs:regs1;
              f_k2 = kernel_src_of_file f2 ~block:d2 ~smem:smem2 ~regs:regs2;
              f_grid = grid;
            }))
  in
  let f1 = Arg.(required & pos 0 (some file) None & info [] ~docv:"K1.cu") in
  let f2 = Arg.(required & pos 1 (some file) None & info [] ~docv:"K2.cu") in
  let d1 = Arg.(value & opt int 256 & info [ "d1" ] ~doc:"Threads for kernel 1.") in
  let d2 = Arg.(value & opt int 256 & info [ "d2" ] ~doc:"Threads for kernel 2.") in
  let smem1 = Arg.(value & opt int 0 & info [ "smem1" ] ~doc:"Dynamic shared bytes of kernel 1.") in
  let smem2 = Arg.(value & opt int 0 & info [ "smem2" ] ~doc:"Dynamic shared bytes of kernel 2.") in
  let regs1 = Arg.(value & opt (some int) None & info [ "regs1" ] ~doc:"Registers/thread of kernel 1.") in
  let regs2 = Arg.(value & opt (some int) None & info [ "regs2" ] ~doc:"Registers/thread of kernel 2.") in
  Cmd.v
    (Cmd.info "fuse" ~doc:"Horizontally fuse two CUDA kernels (Fig. 5).")
    Term.(const run $ f1 $ f2 $ d1 $ d2 $ smem1 $ smem2 $ regs1 $ regs2 $ grid_arg)

let vfuse_cmd =
  let run f1 f2 block grid =
    let k1 = info_of_file f1 ~block ~grid ~smem_dynamic:0 ~regs:None in
    let k2 = info_of_file f2 ~block ~grid ~smem_dynamic:0 ~regs:None in
    match Hfuse_core.Vfuse.generate k1 k2 with
    | v -> print_endline (Hfuse_core.Vfuse.to_source v)
    | exception Hfuse_core.Fuse_common.Fusion_error msg ->
        Printf.eprintf "hfuse: %s\n" msg;
        exit 1
  in
  let f1 = Arg.(required & pos 0 (some file) None & info [] ~docv:"K1.cu") in
  let f2 = Arg.(required & pos 1 (some file) None & info [] ~docv:"K2.cu") in
  let block =
    Arg.(value & opt int 256 & info [ "block" ] ~doc:"Block dimension.")
  in
  Cmd.v
    (Cmd.info "vfuse" ~doc:"Vertically fuse two CUDA kernels (baseline).")
    Term.(const run $ f1 $ f2 $ block $ grid_arg)

(* -- check -------------------------------------------------------------- *)

let check_cmd =
  let run arch f1 f2 d1 d2 smem1 smem2 regs1 regs2 grid repair =
    finish
      (route ~settings:(settings ())
         (Ops.Check
            {
              c_arch = arch;
              c_k1 = kernel_src_of_file f1 ~block:d1 ~smem:smem1 ~regs:regs1;
              c_k2 =
                Option.map
                  (fun f2 ->
                    kernel_src_of_file f2 ~block:d2 ~smem:smem2 ~regs:regs2)
                  f2;
              c_grid = grid;
              c_repair = repair;
            }))
  in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "On rejection, run the diagnostic-driven repair engine and \
             report the transformed kernel's verdict.  Static preview \
             only: $(b,check) has no workload, so the differential \
             soundness oracle that gates admission in $(b,search) and \
             the fleet does not run here.")
  in
  let f1 = Arg.(required & pos 0 (some file) None & info [] ~docv:"K1.cu") in
  let f2 = Arg.(value & pos 1 (some file) None & info [] ~docv:"K2.cu") in
  let d1 =
    Arg.(value & opt int 256 & info [ "d1" ] ~doc:"Threads for kernel 1.")
  in
  let d2 =
    Arg.(value & opt int 256 & info [ "d2" ] ~doc:"Threads for kernel 2.")
  in
  let smem1 =
    Arg.(
      value & opt int 0
      & info [ "smem1" ] ~doc:"Dynamic shared bytes of kernel 1.")
  in
  let smem2 =
    Arg.(
      value & opt int 0
      & info [ "smem2" ] ~doc:"Dynamic shared bytes of kernel 2.")
  in
  let regs1 =
    Arg.(
      value
      & opt (some int) None
      & info [ "regs1" ] ~doc:"Registers/thread of kernel 1.")
  in
  let regs2 =
    Arg.(
      value
      & opt (some int) None
      & info [ "regs2" ] ~doc:"Registers/thread of kernel 2.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Static fusion-safety report: barrier ids/counts/divergence, \
          shared-memory races, resource budget.  With one file, checks \
          the kernel as-is; with two, checks their horizontal fusion.  \
          Exits 1 when any error-severity diagnostic is found.")
    Term.(
      const run $ arch_arg $ f1 $ f2 $ d1 $ d2 $ smem1 $ smem2 $ regs1
      $ regs2 $ grid_arg $ repair)

(* -- info --------------------------------------------------------------- *)

let info_cmd =
  let run path =
    let prog, fn = or_die (parse_kernel_file path) in
    (match Cuda.Typecheck.check_program_result prog with
    | Ok () -> Printf.printf "typecheck: ok\n"
    | Error (msg, loc) ->
        Printf.printf "typecheck: FAILED at %s: %s\n"
          (Cuda.Loc.to_string loc) msg);
    let body = (Hfuse_frontend.Inline.normalize_kernel prog fn).f_body in
    Printf.printf "kernel: %s\n" fn.f_name;
    Printf.printf "parameters: %d\n" (List.length fn.f_params);
    Printf.printf "barriers: %d\n" (Cuda.Ast_util.barrier_count body);
    Printf.printf "static shared memory: %d bytes\n"
      (Hfuse_core.Kernel_info.smem_static_of_body body);
    Printf.printf "estimated registers/thread (AST heuristic): %d\n"
      (Gpusim.Resource_model.estimate_fn fn);
    (match Hfuse_ptx.Lower.lower_fn { fn with f_body = body } with
    | l ->
        Printf.printf "lowered PTX instructions: %d\n"
          (Hfuse_ptx.Liveness.static_instructions l);
        Printf.printf "register pressure (PTX liveness): %d\n"
          (Hfuse_ptx.Liveness.register_pressure l)
    | exception Hfuse_ptx.Lower.Unsupported msg ->
        Printf.printf "PTX lowering unavailable: %s\n" msg)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"K.cu") in
  Cmd.v
    (Cmd.info "info" ~doc:"Parse, typecheck and summarise one kernel.")
    Term.(const run $ path)

(* -- corpus ------------------------------------------------------------- *)

let corpus_cmd =
  let run fleet () =
    let specs =
      if fleet then begin
        Hfuse_fleet.Corpus.install ();
        Hfuse_fleet.Corpus.all_specs ()
      end
      else Kernel_corpus.Registry.all
    in
    Printf.printf "%-11s %-13s %9s %6s %8s\n" "kernel" "kind" "block" "regs"
      "tunable";
    List.iter
      (fun (s : Kernel_corpus.Spec.t) ->
        let x, y, z = s.native_block in
        Printf.printf "%-11s %-13s %3dx%dx%d %6d %8s\n" s.name
          (Fmt.str "%a" Kernel_corpus.Spec.pp_kind s.kind)
          x y z s.regs
          (match s.tunability with
          | Hfuse_core.Kernel_info.Tunable _ -> "yes"
          | Hfuse_core.Kernel_info.Fixed -> "no"))
      specs;
    if fleet then begin
      let n = List.length specs in
      Printf.printf "\n%d kernels, %d fleet pairs, corpus digest %s\n" n
        (n * (n - 1) / 2)
        (Hfuse_fleet.Corpus.digest ())
    end
    else
      Printf.printf "\n%d benchmark pairs\n"
        (List.length Kernel_corpus.Registry.all_pairs)
  in
  let fleet =
    Arg.(
      value & flag
      & info [ "fleet" ]
          ~doc:
            "List the whole fleet corpus (extended registry + curated \
             generated kernels) and its digest instead of the paper's nine.")
  in
  Cmd.v
    (Cmd.info "corpus" ~doc:"List the paper's benchmark kernels.")
    Term.(const run $ fleet $ const ())

(* -- simulate ----------------------------------------------------------- *)

let kernel_arg flag_name =
  let kernel_conv =
    Arg.conv'
      ( (fun s ->
          match Kernel_corpus.Registry.find s with
          | Some k -> Ok k
          | None -> Error ("unknown corpus kernel " ^ s)),
        fun ppf (s : Kernel_corpus.Spec.t) -> Fmt.string ppf s.name )
  in
  Arg.(
    required
    & opt (some kernel_conv) None
    & info [ flag_name ] ~docv:"KERNEL" ~doc:"Corpus kernel name.")

let size_arg flag_name =
  Arg.(
    value
    & opt (some int) None
    & info [ flag_name ] ~docv:"N" ~doc:"Workload size (default: representative).")

let simulate_cmd =
  let run arch (spec : Kernel_corpus.Spec.t) size validate engine_stats
      trace_blocks =
    finish
      (route ~settings:(settings ?trace_blocks ())
         (Ops.Simulate
            {
              m_arch = arch;
              m_kernel = spec;
              m_size = size;
              m_validate = validate;
              m_engine_stats = engine_stats;
            }))
  in
  let validate =
    Arg.(value & flag & info [ "validate" ] ~doc:"Check against host reference.")
  in
  let engine_stats =
    Arg.(
      value & flag
      & info [ "engine-stats" ]
          ~doc:
            "Print the replay engine's self-profiling counters (cycles \
             and SM-steps skipped by event-driven stepping, scan-skip \
             hits, warp-record reuse).")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run a corpus kernel on the simulator and print its metrics.")
    Term.(
      const run $ arch_arg $ kernel_arg "kernel" $ size_arg "size" $ validate
      $ engine_stats $ trace_blocks_arg)

(* -- search ------------------------------------------------------------- *)

let search_cmd =
  let run arch (s1 : Kernel_corpus.Spec.t) (s2 : Kernel_corpus.Spec.t) size1
      size2 emit jobs cache_dir resume top_k repair fault trace_blocks =
    (* one env/flag capture up front, threaded explicitly (and shipped
       to the daemon when routed) *)
    let settings = settings ?trace_blocks ?cache_dir ?fault () in
    (* a resumed run is named by the requested sizes, so its root is open
       before the size probe; entries are content-keyed, so the name
       only isolates runs and can never serve a stale result *)
    let settings =
      if not resume then settings
      else
        let size = Option.fold ~none:"default" ~some:string_of_int in
        Settings.resumable settings
          ~parts:
            ([
               "search"; arch.Gpusim.Arch.name; s1.name; size size1; s2.name;
               size size2; prune_id_part top_k;
             ]
            @ if repair then [ "repair" ] else [])
    in
    let params =
      {
        Ops.s_arch = arch;
        s_k1 = s1;
        s_k2 = s2;
        s_size1 = size1;
        s_size2 = size2;
        s_emit = emit;
        s_jobs = jobs;
        s_top_k = top_k;
        s_repair = repair;
      }
    in
    let outcome =
      try route ~settings (Ops.Search params) with
      | Hfuse_core.Search.No_valid_partition message ->
          (* a rejected pair is a verdict, not a crash *)
          Ops.rejected message
      | Hfuse_profiler.Runner.All_candidates_failed message ->
          (* so is a pair whose every candidate failed to profile; a
             routed search ends with the same outcome *)
          Ops.all_failed message
      | Sys.Break ->
        Printf.eprintf "\nhfuse: interrupted%s\n"
          (if resume then
             "; profiled results saved — rerun with --resume to continue"
           else "; rerun with --resume to make interrupted runs resumable");
        exit 130
    in
    finish outcome
  in
  let emit =
    Arg.(value & flag & info [ "emit" ] ~doc:"Print the best fused source.")
  in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Hand verifier-rejected partitions to the diagnostic-driven \
             repair engine.  A repaired candidate enters profiling only \
             after the differential soundness oracle passes (unfused \
             vs. fused, global memory byte-for-byte); refuted repairs \
             fail closed back to rejection.")
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:
         "Run the Fig. 6 profiling search for a corpus pair on the \
          simulator.")
    Term.(
      const run $ arch_arg $ kernel_arg "k1" $ kernel_arg "k2"
      $ size_arg "size1" $ size_arg "size2" $ emit $ jobs_arg $ cache_dir_arg
      $ resume_arg $ prune_arg $ repair $ fault_arg $ trace_blocks_arg)

(* -- model -------------------------------------------------------------- *)

(* Dump the analytical cost model's view of a corpus pair: the static
   per-kernel features and every candidate's score, without running the
   simulator.  The calibration workflow compares this against a
   simulated `search` of the same pair. *)
let model_cmd =
  let run arch (s1 : Kernel_corpus.Spec.t) (s2 : Kernel_corpus.Spec.t) size1
      size2 trace_blocks =
    let size1, size2 =
      let settings = settings ?trace_blocks () in
      Hfuse_profiler.Experiment.pair_sizes ~settings
        ~cache:(Settings.cache settings) arch (s1, size1) (s2, size2)
    in
    let mem = Gpusim.Memory.create () in
    let c1 = Hfuse_profiler.Runner.configure mem s1 ~size:size1 in
    let c2 = Hfuse_profiler.Runner.configure mem s2 ~size:size2 in
    let inputs = Hfuse_costmodel.of_pair ~arch c1.info c2.info in
    Printf.printf "arch: %s\n" arch.Gpusim.Arch.name;
    Printf.printf "k1 %-12s work %8d  mix %s\n" s1.name inputs.work1
      (Fmt.str "%a" Hfuse_core.Analyzer.pp_mix inputs.mix1);
    Printf.printf "k2 %-12s work %8d  mix %s\n" s2.name inputs.work2
      (Fmt.str "%a" Hfuse_core.Analyzer.pp_mix inputs.mix2);
    (* enumerate exactly as the search does, but score instead of
       profiling *)
    let sr =
      Hfuse_core.Search.search
        ~limits:(Gpusim.Arch.sm_limits arch)
        ~profile:(Hfuse_costmodel.rank inputs)
        ~d0:(Hfuse_profiler.Runner.d0_for c1 c2)
        c1.info c2.info
    in
    List.iter
      (fun (cand : Hfuse_core.Search.candidate) ->
        Printf.printf "%5d/%-5d %-9s model %.6g\n" cand.fused.d1
          cand.fused.d2
          (match cand.config.reg_bound with
          | None -> "unbounded"
          | Some r -> Printf.sprintf "r0=%d" r)
          cand.time)
      sr.all;
    let b = sr.best in
    Printf.printf "model pick: %d/%d %s\n" b.fused.d1 b.fused.d2
      (match b.config.reg_bound with
      | None -> "unbounded"
      | Some r -> Printf.sprintf "r0=%d" r)
  in
  Cmd.v
    (Cmd.info "model"
       ~doc:
         "Score a corpus pair's fusion candidates with the analytical \
          cost model (no simulation).")
    Term.(
      const run $ arch_arg $ kernel_arg "k1" $ kernel_arg "k2"
      $ size_arg "size1" $ size_arg "size2" $ trace_blocks_arg)

(* -- analyze ------------------------------------------------------------ *)

let analyze_cmd =
  let run path =
    let prog, fn = or_die (parse_kernel_file path) in
    let fn' = Hfuse_frontend.Inline.normalize_kernel prog fn in
    let m = Hfuse_core.Analyzer.analyze_fn fn' in
    Printf.printf "kernel: %s
" fn.f_name;
    Printf.printf "instruction mix: %s
"
      (Fmt.str "%a" Hfuse_core.Analyzer.pp_mix m);
    Printf.printf "character: %s
"
      (Fmt.str "%a" Hfuse_core.Analyzer.pp_character
         (Hfuse_core.Analyzer.classify m))
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"K.cu") in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static instruction-mix analysis and resource classification           (the paper's fusion-scenario guidance).")
    Term.(const run $ path)

(* -- pairs -------------------------------------------------------------- *)

let pairs_cmd =
  let run () =
    let infos =
      List.map
        (fun (s : Kernel_corpus.Spec.t) ->
          let mem = Gpusim.Memory.create () in
          let inst = s.instantiate mem ~size:1 in
          (s.name, Kernel_corpus.Spec.kernel_info s inst))
        Kernel_corpus.Registry.all
    in
    let by_info =
      List.map (fun (n, i) -> (i.Hfuse_core.Kernel_info.fn.f_name, n)) infos
    in
    Printf.printf "%-24s %9s   (predicted fusion affinity, best first)
"
      "pair" "affinity";
    List.iter
      (fun (a, b, score) ->
        let name k =
          Option.value
            (List.assoc_opt k.Hfuse_core.Kernel_info.fn.Cuda.Ast.f_name by_info)
            ~default:k.Hfuse_core.Kernel_info.fn.Cuda.Ast.f_name
        in
        Printf.printf "%-24s %9.2f
" (name a ^ "+" ^ name b) score)
      (Hfuse_core.Analyzer.rank_pairs (List.map snd infos))
  in
  Cmd.v
    (Cmd.info "pairs"
       ~doc:"Rank the corpus kernels' fusion pairs by predicted affinity.")
    Term.(const run $ const ())

(* -- ptx ---------------------------------------------------------------- *)

let ptx_cmd =
  let run path sm fuse_with d1 d2 =
    match fuse_with with
    | None ->
        let prog, fn = or_die (parse_kernel_file path) in
        print_string (Hfuse_ptx.Emit.of_kernel ~sm prog fn)
    | Some path2 ->
        let k1 = info_of_file path ~block:d1 ~grid:8 ~smem_dynamic:0 ~regs:None in
        let k2 = info_of_file path2 ~block:d2 ~grid:8 ~smem_dynamic:0 ~regs:None in
        (match Hfuse_core.Hfuse.generate k1 k2 with
        | fused -> print_string (Hfuse_ptx.Emit.of_kernel ~sm fused.prog fused.fn)
        | exception Hfuse_core.Fuse_common.Fusion_error msg ->
            Printf.eprintf "hfuse: %s\n" msg;
            exit 1)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"K.cu") in
  let sm = Arg.(value & opt int 61 & info [ "sm" ] ~doc:"Target SM version.") in
  let fuse_with =
    Arg.(value & opt (some file) None
         & info [ "fuse-with" ] ~docv:"K2.cu"
             ~doc:"Horizontally fuse with this kernel before lowering.")
  in
  let d1 = Arg.(value & opt int 256 & info [ "d1" ] ~doc:"Threads for kernel 1.") in
  let d2 = Arg.(value & opt int 256 & info [ "d2" ] ~doc:"Threads for kernel 2.") in
  Cmd.v
    (Cmd.info "ptx"
       ~doc:"Lower a kernel (optionally fused) to PTX-flavoured assembly.")
    Term.(const run $ path $ sm $ fuse_with $ d1 $ d2)

(* -- fuzz --------------------------------------------------------------- *)

let fuzz_cmd =
  let run runs seed jobs out weights_spec max_kernels no_minimize inject repair =
    let weights =
      match
        Hfuse_fuzz.Gen.weights_of_spec Hfuse_fuzz.Gen.default_weights
          weights_spec
      with
      | Ok w -> w
      | Error msg ->
          Printf.eprintf "hfuse fuzz: %s\n" msg;
          exit 2
    in
    let cfg =
      {
        Hfuse_fuzz.Driver.default_config with
        runs;
        seed;
        jobs;
        out_dir = out;
        weights;
        max_kernels;
        minimize = not no_minimize;
        inject =
          (if inject then Some Hfuse_fuzz.Driver.inject_barrier_count
           else None);
        repair;
      }
    in
    let report = Hfuse_fuzz.Driver.run cfg in
    Fmt.pr "%a@." Hfuse_fuzz.Driver.pp_report report;
    if report.failed > 0 then exit 1
  in
  let runs =
    Arg.(value & opt int 100
         & info [ "runs" ] ~docv:"N" ~doc:"Number of random cases.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"S" ~doc:"Campaign seed; fixes everything.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Write minimized repro files for failures to $(docv).")
  in
  let weights =
    Arg.(value & opt string ""
         & info [ "weights" ] ~docv:"K=V,..."
             ~doc:
               "Grammar weight overrides, e.g. $(b,sync=0,atomic=5). Keys: \
                global_store local_assign shared_store atomic sync \
                if_uniform if_divergent loop shuffle divergent_sync.")
  in
  let max_kernels =
    Arg.(value & opt int 3
         & info [ "max-kernels" ] ~docv:"K"
             ~doc:"2 fuzzes pairs only; 3 (default) adds occasional triples.")
  in
  let no_minimize =
    Arg.(value & flag
         & info [ "no-minimize" ] ~doc:"Skip delta-debugging of failures.")
  in
  let inject =
    Arg.(value & flag
         & info [ "inject-barrier-bug" ]
             ~doc:
               "Deliberately corrupt fused barrier counts (oracle \
                meta-test; every fusable case must fail).")
  in
  let repair =
    Arg.(value & flag
         & info [ "repair" ]
             ~doc:
               "Feed every rejected pair through the repair engine and \
                report the serviceable fraction. Repairs the differential \
                oracle refutes are minimized to repro files and count as \
                failures.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate random kernels, run them unfused \
          and fused on the simulator, and compare memory byte-for-byte. \
          Exits non-zero if any case fails.")
    Term.(
      const run $ runs $ seed $ jobs_arg $ out $ weights $ max_kernels
      $ no_minimize $ inject $ repair)

(* -- serve -------------------------------------------------------------- *)

let serve_cmd =
  let run socket jobs queue_limit fault =
    match
      Hfuse_serve.Server.create
        {
          Hfuse_serve.Server.socket_path = socket;
          jobs;
          queue_limit;
          settings = settings ?fault ();
        }
    with
    | exception Failure msg ->
        Printf.eprintf "hfuse: serve: %s\n" msg;
        exit 1
    | t ->
        (* publish the fleet corpus before accepting requests, so
           name-based resolution ("k1":"gen007") works and the scan's
           cost is paid once at startup, not on the first search *)
        Hfuse_fleet.Corpus.install ();
        let stop _ = Hfuse_serve.Server.request_stop t in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Printf.eprintf "hfuse: serving on %s (%d worker%s, queue limit %d)\n%!"
          socket jobs
          (if jobs = 1 then "" else "s")
          queue_limit;
        Hfuse_serve.Server.serve t
  in
  let socket =
    Arg.(
      value
      & opt string "_hfuse.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket to listen on.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Hfuse_parallel.Pool.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains executing requests (default: machine size).")
  in
  let queue_limit =
    Arg.(
      value
      & opt int Hfuse_serve.Server.default_queue_limit
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Admission control: answer $(b,overloaded) instead of queueing \
             more than $(docv) unstarted requests.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent fusion daemon: a Unix-socket server answering \
          fuse/check/simulate/search/stats requests (newline-delimited \
          JSON) with a shared warm trace cache.  Responses are \
          byte-identical to the one-shot CLI.  Point $(b,HFUSE_SERVER) at \
          the socket to route ordinary hfuse invocations through it.")
    Term.(const run $ socket $ jobs $ queue_limit $ fault_arg)

(* -- client ------------------------------------------------------------- *)

let client_cmd =
  let run socket line =
    let socket =
      match (socket, Hfuse_serve.Client.default_socket ()) with
      | Some s, _ | None, Some s -> s
      | None, None ->
          Printf.eprintf
            "hfuse: client: no server socket (--socket or HFUSE_SERVER)\n";
          exit 2
    in
    let send line =
      match Hfuse_serve.Client.roundtrip ~socket line with
      | Ok resp -> print_endline resp
      | Error msg ->
          Printf.eprintf "hfuse: %s\n" msg;
          exit 3
    in
    match line with
    | Some l -> send l
    | None -> (
        try
          while true do
            send (input_line stdin)
          done
        with End_of_file -> ())
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Daemon socket (default $(b,HFUSE_SERVER)).")
  in
  let line =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"REQUEST"
          ~doc:
            "One JSON request line (omitted: read request lines from \
             stdin).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send raw protocol request lines to a running $(b,hfuse serve) \
          daemon and print the response lines.")
    Term.(const run $ socket $ line)

(* -- main --------------------------------------------------------------- *)

let () =
  Sys.catch_break true;
  let doc = "automatic horizontal fusion for GPU kernels (CGO 2022)" in
  exit
    (try
       Cmd.eval ~catch:false
         (Cmd.group
            (Cmd.info "hfuse" ~version:"1.0.0" ~doc)
            [
              fuse_cmd; vfuse_cmd; check_cmd; info_cmd; corpus_cmd;
              simulate_cmd; search_cmd; model_cmd; analyze_cmd; pairs_cmd; ptx_cmd;
              fuzz_cmd; serve_cmd; client_cmd;
            ])
     with
     | Gpusim.Launch.Sim_timeout { kernel; fuel; block } ->
         (* the fuel watchdog fired outside a recovery layer: a clean
            diagnostic, not cmdliner's "internal error" banner *)
         Printf.eprintf
           "hfuse: simulation watchdog: kernel %s exhausted its loop fuel \
            (%d steps) in block %d — runaway loop?  Raise HFUSE_SIM_FUEL to \
            allow longer simulations.\n"
           kernel fuel block;
         1
     | Sys.Break ->
         prerr_endline "hfuse: interrupted";
         130)
