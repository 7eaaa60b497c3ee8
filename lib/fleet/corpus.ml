(* The fleet corpus: the hand-written extended registry plus a curated
   set of fuzzer-generated kernels.

   Curation is a deterministic scan, not a hand-picked list: seeds are
   tried in order from 0 and a seed is kept iff its generated kernel
   passes {!vet} — source round-trips through the parser, the solo
   verifier is clean, resources are modest, and a solo simulated launch
   completes.  The scan is a pure function of the generator, so every
   process (bench driver, daemon, tests) reconstructs the identical
   corpus, and {!digest} fingerprints it for cache keys and the fleet's
   resume run ids. *)

open Cuda
module Gen = Hfuse_fuzz.Gen
module Spec = Kernel_corpus.Spec
module Registry = Kernel_corpus.Registry
module Workload = Kernel_corpus.Workload
module Prng = Kernel_corpus.Prng
module Memory = Gpusim.Memory
module Value = Gpusim.Value
module Launch = Gpusim.Launch

type entry = { seed : int; kernel : Gen.kernel; spec : Spec.t }

let generated_count = 33

(* Generated kernels launch the corpus-wide default grid so any pair —
   generated x generated or generated x hand-written — agrees on the
   launch shape. *)
let gen_grid = Workload.default_grid

(* Same loop-fuel budget as the differential fuzzer: generated loops
   have constant trip counts, so anything that needs more is broken. *)
let vet_loop_fuel = 20_000

let max_regs = 64
let max_smem = 4096

let kernel_name seed = Printf.sprintf "gen%03d" seed

(* Deterministically allocate-and-fill a generated kernel's buffers —
   the differential oracle's binding, so the fleet exercises the same
   memory contents the fuzzer vetted. *)
let bind (k : Gen.kernel) mem : Value.t list =
  let prng = Prng.create k.Gen.g_fill_seed in
  let name_prefix = k.Gen.g_info.fn.f_name in
  let ptr_args =
    List.map
      (fun (b : Gen.buffer) ->
        let ptr =
          Memory.alloc mem
            ~name:(name_prefix ^ "." ^ b.b_name)
            ~elem:b.b_elem ~count:b.b_count
        in
        (match b.b_elem with
        | Ctype.Float | Ctype.Double ->
            Memory.fill_floats mem ptr
              (Prng.float_array prng b.b_count ~lo:(-4.0) ~hi:4.0)
        | Ctype.Long | Ctype.ULong ->
            Memory.fill_int64s mem ptr (Prng.int64_array prng b.b_count)
        | _ ->
            Memory.fill_int32s mem ptr
              (Prng.int32_array prng b.b_count ~bound:1024));
        (ptr, b))
      k.Gen.g_buffers
  in
  List.map (fun (p, _) -> Value.Ptr p) ptr_args
  @ [ Value.Int (Int32.of_int k.Gen.g_n) ]

let spec_of_kernel (k : Gen.kernel) : Spec.t =
  let info = k.Gen.g_info in
  let source = Gen.kernel_source k in
  {
    Spec.name = info.fn.f_name;
    kind = Spec.Generated;
    source;
    regs = info.regs;
    native_block = info.block;
    (* block-size retuning would change shuffle/shared semantics the
       generator fixed at creation time *)
    tunability = Hfuse_core.Kernel_info.Fixed;
    default_size = 1;
    instantiate =
      (fun mem ~size:_ ->
        let args = bind k mem in
        let outputs =
          List.map2
            (fun arg (b : Gen.buffer) ->
              match arg with
              | Value.Ptr p -> (info.fn.f_name ^ "." ^ b.b_name, p, b.b_count)
              | _ -> assert false)
            (List.filteri
               (fun i _ -> i < List.length k.Gen.g_buffers)
               args)
            k.Gen.g_buffers
        in
        {
          Workload.args;
          grid = info.grid;
          smem_dynamic = info.smem_dynamic;
          outputs;
          (* correctness of generated kernels is the differential
             oracle's job (unfused-vs-fused byte equality); there is no
             host reference to check against *)
          check = (fun _ -> Ok ());
        });
  }

(* ------------------------------------------------------------------ *)
(* Vetting                                                              *)
(* ------------------------------------------------------------------ *)

let vet (k : Gen.kernel) : (unit, string) result =
  let info = k.Gen.g_info in
  let bx, by, bz = info.block in
  let threads = bx * by * bz in
  try
    if info.regs > max_regs then Error (Fmt.str "regs %d > %d" info.regs max_regs)
    else if info.smem_dynamic > max_smem then
      Error (Fmt.str "smem %d > %d" info.smem_dynamic max_smem)
    else begin
      (* 1. the pretty-printed source must parse back to the same fn —
         Spec.kernel_info reconstructs the kernel from source *)
      let src = Gen.kernel_source k in
      let _, fn = Parser.parse_kernel src in
      if fn.f_name <> info.fn.f_name then Error "name lost in roundtrip"
      else if not (Ast_util.equal_normalized info.fn.f_body fn.f_body) then
        Error "body differs after reparse"
      else begin
        (* 2. solo fusion-safety verification on the normalized body *)
        let fn' = Hfuse_frontend.Inline.normalize_kernel info.prog info.fn in
        match
          Hfuse_analysis.Verifier.verify_kernel ~label:info.fn.f_name ~threads
            ~regs:info.regs ~smem_dynamic:info.smem_dynamic fn'.f_body
        with
        | _ :: _ as diags ->
            Error
              (Fmt.str "verifier: %s"
                 (Hfuse_analysis.Diag.report_to_string diags))
        | [] -> (
            (* 3. a solo simulated launch must complete *)
            let mem = Memory.create () in
            let args = bind k mem in
            match
              Launch.launch_info ~loop_fuel:vet_loop_fuel mem
                { info with fn = fn' } ~args ~trace_blocks:0
            with
            | _ -> Ok ()
            | exception Launch.Deadlock msg -> Error ("deadlock: " ^ msg)
            | exception Launch.Launch_error msg ->
                Error ("launch error: " ^ msg)
            | exception Launch.Sim_timeout _ -> Error "loop fuel exhausted"
            | exception Gpusim.Interp.Exec_error msg ->
                Error ("exec error: " ^ msg)
            | exception Value.Runtime_error msg ->
                Error ("runtime error: " ^ msg))
      end
    end
  with
  | Parser.Error (msg, _) -> Error ("reparse: " ^ msg)
  | Failure msg -> Error ("reparse: " ^ msg)

(* ------------------------------------------------------------------ *)
(* The deterministic scan                                               *)
(* ------------------------------------------------------------------ *)

let max_scan = 4096 (* far beyond what 33 acceptances ever need *)

let build_curated () : entry list =
  let rec scan seed acc n =
    if n >= generated_count then List.rev acc
    else if seed >= max_scan then
      invalid_arg
        (Fmt.str "fleet corpus: only %d of %d seeds vetted after %d candidates"
           n generated_count max_scan)
    else
      let prng = Prng.create (0x464C5400 + seed) in
      let k =
        Gen.generate_kernel ~prng ~name:(kernel_name seed) ~grid:gen_grid
          ~allow_griddim:false ()
      in
      match vet k with
      | Ok () ->
          scan (seed + 1) ({ seed; kernel = k; spec = spec_of_kernel k } :: acc)
            (n + 1)
      | Error _ -> scan (seed + 1) acc n
  in
  scan 0 [] 0

let curated_memo : entry list option ref = ref None
let memo_mutex = Mutex.create ()

let curated () =
  Mutex.lock memo_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock memo_mutex)
    (fun () ->
      match !curated_memo with
      | Some es -> es
      | None ->
          let es = build_curated () in
          curated_memo := Some es;
          es)

let generated_specs () = List.map (fun e -> e.spec) (curated ())

(* Canonical fleet order: the hand-written extended registry, then the
   generated kernels by ascending seed.  Pair enumeration, sharding and
   the digest all derive from this order. *)
let all_specs () = Registry.extended @ generated_specs ()

let install () =
  List.iter Registry.register_extra (generated_specs ())

let digest () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (s : Spec.t) ->
      let bx, by, bz = s.native_block in
      Buffer.add_string b
        (Printf.sprintf "%s|%s|%s|%d|%dx%dx%d|%s|%d\n" s.name
           (Fmt.str "%a" Spec.pp_kind s.kind)
           (Digest.to_hex (Digest.string s.source))
           s.regs bx by bz
           (match s.tunability with
           | Hfuse_core.Kernel_info.Fixed -> "fixed"
           | Hfuse_core.Kernel_info.Tunable { multiple_of } ->
               Printf.sprintf "tunable%d" multiple_of)
           s.default_size))
    (all_specs ());
  Digest.to_hex (Digest.string (Buffer.contents b))
