(* Printer tests: specific precedence cases plus a QCheck round-trip
   property — printing a random expression and re-parsing it must yield
   the same AST. *)

open Cuda

let reprint src = Pretty.expr_to_string (Parser.parse_expr_string src)

let test_minimal_parens () =
  Alcotest.(check string) "assoc chain kept flat" "a + b + c"
    (reprint "a + b + c");
  Alcotest.(check string)
    "right-nested sub parenthesised" "a - (b - c)"
    (reprint "a - (b - c)");
  Alcotest.(check string) "cast tight" "(float)x + y" (reprint "(float)x + y");
  Alcotest.(check string)
    "assign in call arg" "f(a = b)" (reprint "f(a = b)");
  Alcotest.(check string)
    "ternary nested" "a ? b : c ? d : e"
    (reprint "a ? b : c ? d : e");
  Alcotest.(check string)
    "index of deref" "(*p)[i]" (reprint "(*p)[i]")

let test_stmt_printing () =
  let s = Parser.parse_stmts_string "if (a < b) { x += 1; } else y = 2;" in
  let printed = String.concat "\n" (List.map Pretty.stmt_to_string s) in
  let s2 = Parser.parse_stmts_string printed in
  Alcotest.(check bool) "stmt round trip" true (Ast_util.equal_normalized s s2)

let test_fn_round_trip () =
  let src =
    {|
__global__ void k(float* a, int n) {
  __shared__ float buf[32];
  extern __shared__ unsigned char dyn[];
  for (int i = threadIdx.x; i < n; i += blockDim.x) {
    if (i % 2 == 0) { a[i] = buf[i % 32] * 2.0f; } else { continue; }
  }
  __syncthreads();
  asm("bar.sync 1, 128;");
  do { n--; } while (n > 0);
}
|}
  in
  let _, f = Test_util.kernel_of_source src in
  let _, f2 = Test_util.kernel_of_source (Pretty.fn_to_string f) in
  Alcotest.(check bool)
    "function body round trip" true
    (Ast_util.equal_normalized f.f_body f2.f_body);
  Alcotest.(check int)
    "params preserved"
    (List.length f.f_params)
    (List.length f2.f_params)

(* -- QCheck round-trip ------------------------------------------------ *)

let gen_expr : Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let var = oneofl [ "a"; "b"; "c"; "x"; "y" ] >|= fun v -> Ast.Var v in
  let lit =
    oneof
      [
        (map (fun n -> Ast.Int_lit (Int64.of_int (abs n), Ctype.Int)) small_int);
        ( map
            (fun n -> Ast.Int_lit (Int64.of_int (abs n), Ctype.UInt))
            small_int );
        return (Ast.Float_lit (1.5, Ctype.Float));
        return (Ast.Bool_lit true);
        return (Ast.Builtin (Ast.Thread_idx Ast.X));
      ]
  in
  let binops =
    [
      Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Land; Ast.Lor;
      Ast.Band; Ast.Bor; Ast.Bxor; Ast.Shl; Ast.Shr; Ast.Eq; Ast.Ne; Ast.Lt;
      Ast.Le; Ast.Gt; Ast.Ge;
    ]
  in
  fix
    (fun self n ->
      if n <= 0 then oneof [ var; lit ]
      else
        frequency
          [
            (2, oneof [ var; lit ]);
            ( 6,
              oneofl binops >>= fun op ->
              self (n / 2) >>= fun a ->
              self (n / 2) >|= fun b -> Ast.Binop (op, a, b) );
            ( 1,
              oneofl [ Ast.Neg; Ast.Lnot; Ast.Bnot ] >>= fun op ->
              self (n - 1) >|= fun a -> Ast.Unop (op, a) );
            ( 1,
              self (n / 3) >>= fun c ->
              self (n / 3) >>= fun a ->
              self (n / 3) >|= fun b -> Ast.Ternary (c, a, b) );
            ( 1,
              self (n - 1) >|= fun a -> Ast.Cast (Ctype.Float, a) );
            ( 1,
              self (n / 2) >>= fun a ->
              self (n / 2) >|= fun i ->
              Ast.Index (Ast.Var "arr", Ast.Binop (Ast.Add, a, i)) );
            ( 1,
              self (n / 2) >>= fun a ->
              self (n / 2) >|= fun b -> Ast.Call ("min", [ a; b ]) );
          ])
    8

let arb_expr =
  QCheck.make ~print:Pretty.expr_to_string gen_expr

(* The parser canonicalises negation of a literal into a negative
   literal (so printed negative constants round-trip); the property
   compares against that canonical form. *)
let canon =
  Ast_util.map_expr (function
    | Ast.Unop (Ast.Neg, Ast.Int_lit (v, ty))
      when not (Int64.equal v Int64.min_int) ->
        Ast.Int_lit (Int64.neg v, ty)
    | Ast.Unop (Ast.Neg, Ast.Float_lit (v, ty)) -> Ast.Float_lit (-.v, ty)
    | e -> e)

let round_trip_prop =
  QCheck.Test.make ~name:"print/parse round trip" ~count:500 arb_expr
    (fun e ->
      let printed = Pretty.expr_to_string e in
      match Parser.parse_expr_string printed with
      | e' -> canon e = e'
      | exception _ ->
          QCheck.Test.fail_reportf "did not re-parse: %s" printed)

let print_deterministic =
  QCheck.Test.make ~name:"printing is deterministic" ~count:100 arb_expr
    (fun e ->
      String.equal (Pretty.expr_to_string e) (Pretty.expr_to_string e))

(* -- Golden bytes ------------------------------------------------------- *)

(* [golden/pretty.md5] pins the printer's exact output.  Cached times
   and traces of a fused kernel are keyed by what generated it, not by
   its printed source, so this golden is what notices a fused byte
   moving: the profiler suite pins its digest beside
   [Fuse_common.version], which must be bumped with it.  One md5 per
   line, each over the printed programs of one
   group: a corpus kernel, every partition of every fleet pair led by
   one kernel, the vertical baseline of a paper pair, every partition
   and the vertical baseline of a paper pair at its representative
   sizes on each GPU model (a fused kernel's grid guards and shared
   memory offsets come from its workloads' grids and shared memory,
   which may vary with size, and Fig. 9 and warm paper searches run
   there), a batch of fuzzer programs, deep statement
   nests (whose indentation stops growing at column 68), and seeded
   random expressions. *)

module Kernel_info = Hfuse_core.Kernel_info
module Runner = Hfuse_profiler.Runner

let digest_of (parts : string list) =
  Digest.to_hex (Digest.string (String.concat "\n\x00" parts))

let configured ?(size = 1) spec =
  Runner.configure (Gpusim.Memory.create ()) spec ~size

(* the fused source of every partition the search would try (the
   error text where a partition does not fuse) *)
let partition_sources (c1 : Runner.configured) (c2 : Runner.configured) =
  Hfuse_core.Partition.enumerate c1.info c2.info ~d0:(Runner.d0_for c1 c2)
  |> List.map (fun { Hfuse_core.Partition.d1; d2 } ->
         match
           Hfuse_core.Hfuse.generate ~check:false
             (Kernel_info.with_block_dim c1.info d1)
             (Kernel_info.with_block_dim c2.info d2)
         with
         | f -> Hfuse_core.Hfuse.to_source f
         | exception e -> Printexc.to_string e)

let nest ~depth ~with_else =
  let open Ast in
  let leaf i = assign (Var "acc") (Binop (Add, Var "acc", int_lit i)) in
  let rec go i =
    if i = depth then [ leaf i ]
    else
      let cond = Binop (Lt, Builtin (Thread_idx X), int_lit (i * 37)) in
      [ mk_stmt (If (cond, go (i + 1), if with_else then [ leaf (-i) ] else [])) ]
  in
  let body =
    decl ~init:(int_lit 0) "acc" Ctype.Int
    :: go 0
    @ [ assign (Index (Var "out", Builtin (Thread_idx X))) (Var "acc") ]
  in
  let fn =
    {
      f_name = "nest";
      f_kind = Global;
      f_params = [ { p_name = "out"; p_type = Ctype.Ptr Ctype.Int } ];
      f_ret = Ctype.Void;
      f_body = body;
      f_launch_bounds = Some 128;
    }
  in
  [
    Pretty.program_to_string { defines = [ ("N", 40L) ]; functions = [ fn ] };
    Pretty.fn_to_string fn;
    String.concat "\n" (List.map Pretty.stmt_to_string body);
  ]

let golden_pretty_lines () : string list =
  Hfuse_fleet.Corpus.install ();
  let specs = Hfuse_fleet.Corpus.all_specs () in
  let cs = List.map (fun s -> (s, configured s)) specs in
  let corpus =
    List.map
      (fun (s : Kernel_corpus.Spec.t) ->
        Fmt.str "corpus %s %s" s.name
          (digest_of [ Pretty.program_to_string (fst (Kernel_corpus.Spec.parse s)) ]))
      specs
  in
  let rec pairs = function
    | [] -> []
    | ((s1 : Kernel_corpus.Spec.t), c1) :: rest ->
        Fmt.str "pairs %s %s" s1.name
          (digest_of
             (List.concat_map (fun (_, c2) -> partition_sources c1 c2) rest))
        :: pairs rest
  in
  let vfuse_source c1 c2 =
    match Runner.vfuse_generate c1 c2 with
    | v -> Hfuse_core.Vfuse.to_source v
    | exception e -> Printexc.to_string e
  in
  let vfuse =
    List.map
      (fun ((s1 : Kernel_corpus.Spec.t), (s2 : Kernel_corpus.Spec.t)) ->
        Fmt.str "vfuse %s+%s %s" s1.name s2.name
          (digest_of [ vfuse_source (configured s1) (configured s2) ]))
      Kernel_corpus.Registry.all_pairs
  in
  let representative =
    List.concat_map
      (fun (arch : Gpusim.Arch.t) ->
        let sizes =
          Hfuse_profiler.Experiment.representative_sizes
            ~settings:(Test_util.env_settings ())
            ~cache:(Hfuse_profiler.Profile_cache.disabled ())
            arch
        in
        List.map
          (fun ((s1 : Kernel_corpus.Spec.t), (s2 : Kernel_corpus.Spec.t)) ->
            let size s = Hfuse_profiler.Experiment.size_of sizes s in
            let c1 = configured ~size:(size s1) s1 in
            let c2 = configured ~size:(size s2) s2 in
            Fmt.str "representative %s %s+%s %d %d %s" arch.name s1.name
              s2.name c1.size c2.size
              (digest_of (partition_sources c1 c2 @ [ vfuse_source c1 c2 ])))
          Kernel_corpus.Registry.all_pairs)
      Gpusim.Arch.all
  in
  let fuzz =
    List.init 4 (fun b ->
        let seeds = List.init 25 (fun i -> (b * 25) + i) in
        Fmt.str "fuzz %d-%d %s" (b * 25) ((b * 25) + 24)
          (digest_of
             (List.concat_map
                (fun seed ->
                  (Hfuse_fuzz.Gen.generate_case ~seed ()).c_kernels
                  |> List.map (fun (k : Hfuse_fuzz.Gen.kernel) ->
                         Pretty.program_to_string k.g_info.prog))
                seeds)))
  in
  let nests =
    [
      Fmt.str "nest if %s" (digest_of (nest ~depth:40 ~with_else:false));
      Fmt.str "nest if-else %s" (digest_of (nest ~depth:40 ~with_else:true));
    ]
  in
  let exprs =
    QCheck.Gen.generate ~rand:(Random.State.make [| 19 |]) ~n:500 gen_expr
    |> List.map Pretty.expr_to_string
  in
  corpus @ pairs cs @ vfuse @ representative @ fuzz @ nests
  @ [ Fmt.str "exprs %s" (digest_of exprs) ]

let test_golden_pretty () =
  let expected =
    In_channel.with_open_bin (Filename.concat "golden" "pretty.md5")
      In_channel.input_lines
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check (list string)) "printed bytes" expected (golden_pretty_lines ())

let suite =
  [
    Alcotest.test_case "minimal parens" `Quick test_minimal_parens;
    Alcotest.test_case "statement printing" `Quick test_stmt_printing;
    Alcotest.test_case "function round trip" `Quick test_fn_round_trip;
    Alcotest.test_case "golden printer bytes" `Quick test_golden_pretty;
  ]
  @ Test_util.qcheck_cases [ round_trip_prop; print_deterministic ]
