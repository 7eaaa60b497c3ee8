(* Differential property tests.

   1. Interpreter vs direct evaluation: a random integer expression over
      the thread id, stored to [out[tid]], must produce exactly the value
      obtained by folding the same AST with {!Value} semantics — this
      exercises the lock-step/mask machinery, the env, and the memory
      path independently of the expression generator.

   2. Fusion equivalence on random kernels: horizontally fusing two
      random straight-line kernels must leave both outputs bit-identical
      to native execution, for random partitions. *)

open Cuda
open Gpusim

(* -- random integer expressions over variable [t] ----------------------- *)

let gen_expr : Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return (Ast.Var "t");
        map (fun n -> Ast.int_lit (1 + abs n)) small_int;
        map (fun n -> Ast.Int_lit (Int64.of_int n, Ctype.UInt)) small_int;
      ]
  in
  (* division/modulo get a never-zero divisor; shifts a masked count *)
  let safe_ops = [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Band; Ast.Bor; Ast.Bxor ] in
  fix
    (fun self n ->
      if n <= 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 5,
              oneofl safe_ops >>= fun op ->
              self (n / 2) >>= fun a ->
              self (n / 2) >|= fun b -> Ast.Binop (op, a, b) );
            ( 1,
              oneofl [ Ast.Div; Ast.Mod ] >>= fun op ->
              self (n / 2) >>= fun a ->
              self (n / 2) >|= fun b ->
              Ast.Binop (op, a, Ast.Binop (Ast.Bor, b, Ast.int_lit 1)) );
            ( 1,
              oneofl [ Ast.Shl; Ast.Shr ] >>= fun op ->
              self (n / 2) >>= fun a ->
              self (n / 2) >|= fun b ->
              Ast.Binop (op, a, Ast.Binop (Ast.Band, b, Ast.int_lit 7)) );
            ( 1,
              self (n / 3) >>= fun c ->
              self (n / 3) >>= fun a ->
              self (n / 3) >|= fun b ->
              Ast.Ternary (Ast.Binop (Ast.Lt, c, Ast.int_lit 7), a, b) );
            (1, self (n - 1) >|= fun a -> Ast.Unop (Ast.Bnot, a));
          ])
    6

let arb_expr = QCheck.make ~print:Pretty.expr_to_string gen_expr

(* direct evaluation of the expression with Value semantics *)
let rec eval_direct (t : Value.t) (e : Ast.expr) : Value.t =
  match e with
  | Ast.Var "t" -> t
  | Ast.Int_lit (v, Ctype.UInt) -> Value.UInt (Int64.to_int32 v)
  | Ast.Int_lit (v, _) -> Value.Int (Int64.to_int32 v)
  | Ast.Binop (op, a, b) ->
      Value.binop op (eval_direct t a) (eval_direct t b)
  | Ast.Unop (op, a) -> Value.unop op (eval_direct t a)
  | Ast.Ternary (c, a, b) ->
      if Value.truthy (eval_direct t c) then eval_direct t a
      else eval_direct t b
  | _ -> failwith "unexpected generated node"

let kernel_of_expr (e : Ast.expr) : string =
  Printf.sprintf "__global__ void k(int* out) { int t = threadIdx.x; out[threadIdx.x] = %s; }"
    (Pretty.expr_to_string e)

let interp_matches_direct =
  QCheck.Test.make ~name:"interpreter matches direct evaluation" ~count:200
    arb_expr (fun e ->
      let src = kernel_of_expr e in
      let prog, fn =
        try Parser.parse_kernel src
        with _ -> QCheck.Test.fail_reportf "reparse failed: %s" src
      in
      let mem = Memory.create () in
      let out = Memory.alloc mem ~name:"out" ~elem:Ctype.Int ~count:32 in
      ignore
        (Launch.launch mem ~fn:(Hfuse_frontend.Inline.normalize_kernel prog fn)
           ~args:[ Value.Ptr out ]
           {
             grid = 1;
             block = (32, 1, 1);
             smem_dynamic = 0;
             trace_blocks = 0;
             l1_sectors = 0;
             exec_blocks = None;
           });
      let got = Memory.read_int32s mem out 32 in
      let ok = ref true in
      for t = 0 to 31 do
        let expect =
          Value.convert Ctype.Int
            (eval_direct (Value.Int (Int32.of_int t)) e)
        in
        match expect with
        | Value.Int v -> if got.(t) <> v then ok := false
        | _ -> ok := false
      done;
      if not !ok then
        QCheck.Test.fail_reportf "mismatch for kernel:\n%s" src
      else true)

(* -- fusion equivalence on random kernels ------------------------------- *)

(* a random kernel: a few stores of random expressions, each to a
   distinct region of [out] so stores never race across threads *)
let gen_kernel_src : string QCheck.Gen.t =
  let open QCheck.Gen in
  list_size (int_range 1 4) gen_expr >|= fun exprs ->
  let stores =
    List.mapi
      (fun i e ->
        Printf.sprintf
          "out[threadIdx.x + blockIdx.x * blockDim.x + %d] = %s;"
          (i * 4096) (Pretty.expr_to_string e))
      exprs
  in
  Printf.sprintf
    "__global__ void k(int* out) { int t = threadIdx.x; %s }"
    (String.concat " " stores)

let arb_kernel_pair =
  QCheck.make
    ~print:(fun (a, b, d1) -> Printf.sprintf "d1=%d\n%s\n%s" d1 a b)
    QCheck.Gen.(
      gen_kernel_src >>= fun a ->
      gen_kernel_src >>= fun b ->
      int_range 1 7 >|= fun d -> (a, b, d * 128))

(* a raw kernel's solo launch: normalised first, as Launch requires *)
let launch_raw mem (k : Hfuse_core.Kernel_info.t) ~args cfg =
  Launch.launch mem ~fn:(Hfuse_core.Kernel_info.normalized k).fn ~args cfg

let run_native_and_fused (src1, src2, d1) =
  let d2 = 1024 - d1 in
  let info src block name : Hfuse_core.Kernel_info.t =
    let prog, fn = Parser.parse_kernel src in
    let fn = { fn with f_name = name } in
    let prog = { prog with Ast.functions = [ fn ] } in
    {
      fn; prog; block = (block, 1, 1); grid = 4; smem_dynamic = 0;
      regs = 16; tunability = Tunable { multiple_of = 32 };
    }
  in
  let k1 = info src1 d1 "ka" and k2 = info src2 d2 "kb" in
  let alloc mem tag =
    Memory.alloc mem ~name:tag ~elem:Ctype.Int ~count:(4 * 4096 + 4096)
  in
  let cfg block =
    {
      Launch.grid = 4; block = (block, 1, 1); smem_dynamic = 0;
      trace_blocks = 0; l1_sectors = 0; exec_blocks = None;
    }
  in
  (* native *)
  let mem_n = Memory.create () in
  let o1 = alloc mem_n "o1" and o2 = alloc mem_n "o2" in
  ignore (launch_raw mem_n k1 ~args:[ Value.Ptr o1 ] (cfg d1));
  ignore (launch_raw mem_n k2 ~args:[ Value.Ptr o2 ] (cfg d2));
  (* fused *)
  let fused = Hfuse_core.Hfuse.generate k1 k2 in
  let mem_f = Memory.create () in
  let p1 = alloc mem_f "o1" and p2 = alloc mem_f "o2" in
  ignore
    (Launch.launch_info ~l1_sectors:0 mem_f
       (Hfuse_core.Kernel_info.normalized (Hfuse_core.Hfuse.info fused))
       ~args:[ Value.Ptr p1; Value.Ptr p2 ] ~trace_blocks:0);
  Memory.equal_snapshot (Memory.snapshot mem_n) (Memory.snapshot mem_f)

let fusion_equivalence =
  QCheck.Test.make ~name:"random-kernel fusion equivalence" ~count:60
    arb_kernel_pair (fun case ->
      try run_native_and_fused case
      with e ->
        QCheck.Test.fail_reportf "exception: %s" (Printexc.to_string e))

(* vertical fusion must also be equivalent on random kernels *)
let run_native_and_vfused (src1, src2, _) =
  let info src name : Hfuse_core.Kernel_info.t =
    let prog, fn = Parser.parse_kernel src in
    let fn = { fn with f_name = name } in
    let prog = { prog with Ast.functions = [ fn ] } in
    {
      fn; prog; block = (256, 1, 1); grid = 4; smem_dynamic = 0;
      regs = 16; tunability = Tunable { multiple_of = 32 };
    }
  in
  let k1 = info src1 "ka" and k2 = info src2 "kb" in
  let alloc mem tag =
    Memory.alloc mem ~name:tag ~elem:Ctype.Int ~count:(4 * 4096 + 4096)
  in
  let cfg =
    {
      Launch.grid = 4; block = (256, 1, 1); smem_dynamic = 0;
      trace_blocks = 0; l1_sectors = 0; exec_blocks = None;
    }
  in
  let mem_n = Memory.create () in
  let o1 = alloc mem_n "o1" and o2 = alloc mem_n "o2" in
  ignore (launch_raw mem_n k1 ~args:[ Value.Ptr o1 ] cfg);
  ignore (launch_raw mem_n k2 ~args:[ Value.Ptr o2 ] cfg);
  let v = Hfuse_core.Vfuse.generate k1 k2 in
  let mem_f = Memory.create () in
  let p1 = alloc mem_f "o1" and p2 = alloc mem_f "o2" in
  ignore
    (Launch.launch_info ~l1_sectors:0 mem_f
       (Hfuse_core.Kernel_info.normalized (Hfuse_core.Vfuse.info v))
       ~args:[ Value.Ptr p1; Value.Ptr p2 ] ~trace_blocks:0);
  Memory.equal_snapshot (Memory.snapshot mem_n) (Memory.snapshot mem_f)

let vfusion_equivalence =
  QCheck.Test.make ~name:"random-kernel vertical-fusion equivalence"
    ~count:40 arb_kernel_pair (fun case ->
      try run_native_and_vfused case
      with e ->
        QCheck.Test.fail_reportf "exception: %s" (Printexc.to_string e))

(* and three-way horizontal fusion *)
let run_native_and_3fused (src1, src2, _) =
  let info src name : Hfuse_core.Kernel_info.t =
    let prog, fn = Parser.parse_kernel src in
    let fn = { fn with f_name = name } in
    let prog = { prog with Ast.functions = [ fn ] } in
    {
      fn; prog; block = (128, 1, 1); grid = 4; smem_dynamic = 0;
      regs = 16; tunability = Tunable { multiple_of = 32 };
    }
  in
  let k1 = info src1 "ka" and k2 = info src2 "kb" and k3 = info src1 "kc" in
  let alloc mem tag =
    Memory.alloc mem ~name:tag ~elem:Ctype.Int ~count:(4 * 4096 + 4096)
  in
  let cfg =
    {
      Launch.grid = 4; block = (128, 1, 1); smem_dynamic = 0;
      trace_blocks = 0; l1_sectors = 0; exec_blocks = None;
    }
  in
  let mem_n = Memory.create () in
  let os = List.map (fun t -> alloc mem_n t) [ "o1"; "o2"; "o3" ] in
  List.iter2
    (fun k o ->
      ignore
        (launch_raw mem_n k ~args:[ Value.Ptr o ] cfg))
    [ k1; k2; k3 ] os;
  let m = Hfuse_core.Multi.generate [ k1; k2; k3 ] in
  let mem_f = Memory.create () in
  let ps = List.map (fun t -> alloc mem_f t) [ "o1"; "o2"; "o3" ] in
  ignore
    (Launch.launch_info ~l1_sectors:0 mem_f
       (Hfuse_core.Kernel_info.normalized (Hfuse_core.Hfuse.info m.fused))
       ~args:(List.map (fun p -> Value.Ptr p) ps)
       ~trace_blocks:0);
  Memory.equal_snapshot (Memory.snapshot mem_n) (Memory.snapshot mem_f)

let multi_fusion_equivalence =
  QCheck.Test.make ~name:"random-kernel 3-way fusion equivalence" ~count:30
    arb_kernel_pair (fun case ->
      try run_native_and_3fused case
      with e ->
        QCheck.Test.fail_reportf "exception: %s" (Printexc.to_string e))

let suite =
  Test_util.qcheck_cases
    [
      interp_matches_direct; fusion_equivalence; vfusion_equivalence;
      multi_fusion_equivalence;
    ]
