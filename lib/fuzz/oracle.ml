open Cuda
module Prng = Kernel_corpus.Prng
module Memory = Gpusim.Memory
module Launch = Gpusim.Launch
module Value = Gpusim.Value
module Hfuse = Hfuse_core.Hfuse
module Kernel_info = Hfuse_core.Kernel_info
module Multi = Hfuse_core.Multi
module Diag = Hfuse_analysis.Diag

type failure =
  | Roundtrip of { label : string; detail : string }
  | Generate_crash of string
  | Fused_crash of string
  | Mismatch of { buffer : string; detail : string }

type verdict =
  | Equivalent
  | Rejected of string
  | Invalid_input of string
  | Failed of failure

let verdict_to_string = function
  | Equivalent -> "equivalent"
  | Rejected r -> "rejected: " ^ r
  | Invalid_input r -> "invalid input: " ^ r
  | Failed (Roundtrip { label; detail }) ->
      Fmt.str "FAIL roundtrip(%s): %s" label detail
  | Failed (Generate_crash d) -> "FAIL generate crash: " ^ d
  | Failed (Fused_crash d) -> "FAIL fused crash: " ^ d
  | Failed (Mismatch { buffer; detail }) ->
      Fmt.str "FAIL mismatch in %s: %s" buffer detail

let verdict_tag = function
  | Equivalent -> "equivalent"
  | Rejected _ -> "rejected"
  | Invalid_input _ -> "invalid"
  | Failed (Roundtrip _) -> "fail-roundtrip"
  | Failed (Generate_crash _) -> "fail-generate"
  | Failed (Fused_crash _) -> "fail-fused-crash"
  | Failed (Mismatch _) -> "fail-mismatch"

let is_failure = function Failed _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Memory setup                                                         *)
(* ------------------------------------------------------------------ *)

(** Allocate and deterministically fill one kernel's buffers; returns
    its positional argument list.  Called identically for the unfused
    and fused runs so both start from byte-identical memory. *)
let bind_kernel mem (k : Gen.kernel) : Value.t list =
  let prng = Prng.create k.g_fill_seed in
  let ptr_args =
    List.map
      (fun (b : Gen.buffer) ->
        let ptr =
          Memory.alloc mem ~name:b.b_name ~elem:b.b_elem ~count:b.b_count
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
        Value.Ptr ptr)
      k.g_buffers
  in
  ptr_args @ [ Value.Int (Int32.of_int k.g_n) ]

let diff_snapshots before after : (string * string) option =
  let rec go a b =
    match (a, b) with
    | [], [] -> None
    | (n1, b1) :: r1, (n2, b2) :: r2 ->
        if n1 <> n2 then Some (n1, Fmt.str "buffer order differs (%s vs %s)" n1 n2)
        else if Bytes.equal b1 b2 then go r1 r2
        else
          let len = min (Bytes.length b1) (Bytes.length b2) in
          let i = ref 0 in
          while !i < len && Bytes.get b1 !i = Bytes.get b2 !i do incr i done;
          Some
            ( n1,
              Fmt.str "first differing byte at offset %d (0x%02x vs 0x%02x)"
                !i
                (Char.code (Bytes.get b1 !i))
                (Char.code (Bytes.get b2 !i)) )
    | (n, _) :: _, [] | [], (n, _) :: _ ->
        Some (n, "buffer sets differ")
  in
  go before after

(* ------------------------------------------------------------------ *)
(* Phases                                                               *)
(* ------------------------------------------------------------------ *)

exception Stop of verdict

let typecheck_inputs (c : Gen.case) =
  List.iter
    (fun (k : Gen.kernel) ->
      match Typecheck.check_program_result k.g_info.prog with
      | Ok () -> ()
      | Error (msg, _) ->
          raise
            (Stop
               (Invalid_input
                  (Fmt.str "%s does not typecheck: %s" k.g_info.fn.f_name msg))))
    c.c_kernels

(** Pretty-print [prog], reparse, and require the named function to come
    back structurally identical (modulo block/Nop normalisation). *)
let roundtrip_fn ~label (prog : Ast.program) (fn : Ast.fn) =
  let src = Pretty.program_to_string prog in
  let reparsed =
    try Ok (Parser.parse_program src) with
    | Parser.Error (msg, loc) -> Error (Fmt.str "%s at %a" msg Loc.pp loc)
    | Failure msg -> Error msg
  in
  match reparsed with
  | Error detail -> raise (Stop (Failed (Roundtrip { label; detail })))
  | Ok prog' -> (
      match Ast.find_fn prog' fn.f_name with
      | None ->
          raise
            (Stop
               (Failed
                  (Roundtrip
                     { label; detail = fn.f_name ^ " lost in reparse" })))
      | Some fn' ->
          if fn'.f_params <> fn.f_params then
            raise
              (Stop
                 (Failed (Roundtrip { label; detail = "parameter list differs" })));
          if not (Ast_util.equal_normalized fn.f_body fn'.f_body) then
            raise
              (Stop
                 (Failed
                    (Roundtrip { label; detail = "body differs after reparse" }))))

let fuse (c : Gen.case) : Hfuse.t =
  try
    match c.c_kernels with
    | [ k1; k2 ] -> Hfuse.generate k1.g_info k2.g_info
    | ks -> (Multi.generate (List.map (fun (k : Gen.kernel) -> k.g_info) ks)).fused
  with
  | Diag.Unsafe_fusion diags ->
      raise (Stop (Rejected (Diag.report_to_string diags)))
  | Hfuse_core.Fuse_common.Fusion_error msg ->
      raise (Stop (Rejected ("fusion front-end: " ^ msg)))

(* Generated loops have constant trip counts <= 4 at nesting <= 2, so a
   few thousand interpreter steps per warp is generous.  A small budget
   matters to the shrinker: candidates that break a loop's structural
   decrement become infinite and must fail fast, not burn the
   simulator's default multi-million-step fuel. *)
let fuzz_loop_fuel = 20_000

let run_unfused (c : Gen.case) : (string * Bytes.t) list =
  let mem = Memory.create () in
  (try
     List.iter
       (fun (k : Gen.kernel) ->
         let args = bind_kernel mem k in
         ignore
           (Launch.launch_info ~loop_fuel:fuzz_loop_fuel mem
              (Kernel_info.normalized k.g_info) ~args ~trace_blocks:0))
       c.c_kernels
   with
  | Launch.Deadlock msg ->
      raise (Stop (Invalid_input ("unfused deadlock: " ^ msg)))
  | Launch.Launch_error msg ->
      raise (Stop (Invalid_input ("unfused launch error: " ^ msg)))
  | Launch.Sim_timeout { kernel; fuel; _ } ->
      raise
        (Stop
           (Invalid_input
              (Fmt.str "unfused %s: loop fuel %d exhausted" kernel fuel)))
  | Gpusim.Interp.Exec_error msg ->
      raise (Stop (Invalid_input ("unfused exec error: " ^ msg)))
  | Value.Runtime_error msg ->
      raise (Stop (Invalid_input ("unfused runtime error: " ^ msg))));
  Memory.snapshot mem

let run_fused ?(inject = fun fn -> fn) (c : Gen.case) (fused : Hfuse.t) :
    (string * Bytes.t) list =
  let info = Hfuse.info fused in
  let fn = inject info.fn in
  let info =
    { info with fn; prog = { info.prog with Ast.functions = [ fn ] } }
  in
  let mem = Memory.create () in
  let args = List.concat_map (bind_kernel mem) c.c_kernels in
  (try
     ignore
       (Launch.launch_info ~loop_fuel:fuzz_loop_fuel mem
          (Kernel_info.normalized info) ~args ~trace_blocks:0)
   with
  | Launch.Deadlock msg -> raise (Stop (Failed (Fused_crash ("deadlock: " ^ msg))))
  | Launch.Launch_error msg ->
      raise (Stop (Failed (Fused_crash ("launch error: " ^ msg))))
  | Launch.Sim_timeout { kernel; fuel; _ } ->
      raise
        (Stop
           (Failed
              (Fused_crash (Fmt.str "%s: loop fuel %d exhausted" kernel fuel))))
  | Gpusim.Interp.Exec_error msg ->
      raise (Stop (Failed (Fused_crash ("exec error: " ^ msg))))
  | Value.Runtime_error msg ->
      raise (Stop (Failed (Fused_crash ("runtime error: " ^ msg)))));
  Memory.snapshot mem

let run_repaired (c : Gen.case) (fused : Hfuse.t) : verdict =
  try
    if c.c_kernels = [] then Invalid_input "empty case"
    else begin
      typecheck_inputs c;
      roundtrip_fn ~label:"repaired" fused.prog fused.fn;
      let reference = run_unfused c in
      let fused_mem = run_fused c fused in
      if Memory.equal_snapshot reference fused_mem then Equivalent
      else
        match diff_snapshots reference fused_mem with
        | Some (buffer, detail) -> Failed (Mismatch { buffer; detail })
        | None -> Failed (Mismatch { buffer = "?"; detail = "snapshots differ" })
    end
  with
  | Stop v -> v
  | e -> Failed (Generate_crash (Printexc.to_string e))

let run ?inject (c : Gen.case) : verdict =
  try
    if c.c_kernels = [] then Invalid_input "empty case"
    else begin
      typecheck_inputs c;
      List.iter
        (fun (k : Gen.kernel) ->
          roundtrip_fn ~label:("input " ^ k.g_info.fn.f_name) k.g_info.prog
            k.g_info.fn)
        c.c_kernels;
      let fused =
        try fuse c
        with Stop _ as s -> raise s
      in
      roundtrip_fn ~label:"fused" fused.prog fused.fn;
      let reference = run_unfused c in
      let fused_mem = run_fused ?inject c fused in
      if Memory.equal_snapshot reference fused_mem then Equivalent
      else
        match diff_snapshots reference fused_mem with
        | Some (buffer, detail) -> Failed (Mismatch { buffer; detail })
        | None -> Failed (Mismatch { buffer = "?"; detail = "snapshots differ" })
    end
  with
  | Stop v -> v
  | Diag.Unsafe_fusion diags -> Rejected (Diag.report_to_string diags)
  | Hfuse_core.Fuse_common.Fusion_error msg -> Rejected ("fusion: " ^ msg)
  | e -> Failed (Generate_crash (Printexc.to_string e))
