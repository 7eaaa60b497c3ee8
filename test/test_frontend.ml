(* Frontend-pass tests: fresh naming, shadow uniquification, declaration
   lifting and device-function inlining. *)

open Cuda
open Hfuse_frontend

(* -- Rename ---------------------------------------------------------- *)

let test_fresh_names () =
  let p = Rename.of_names [ "x"; "x_1" ] in
  Alcotest.(check string) "skips taken" "x_2" (Rename.fresh p "x");
  Alcotest.(check string) "new base untouched" "y" (Rename.fresh p "y");
  Alcotest.(check string) "now y is taken" "y_1" (Rename.fresh p "y")

let fresh_prop =
  QCheck.Test.make ~name:"fresh never collides" ~count:200
    QCheck.(small_list (string_gen_of_size (Gen.return 3) (Gen.char_range 'a' 'z')))
    (fun names ->
      let names = List.filter (fun s -> s <> "") names in
      let p = Rename.of_names names in
      let produced =
        List.map (fun n -> Rename.fresh p n) (names @ names)
      in
      (* all produced names distinct from each other and the originals *)
      let all = produced in
      List.length (List.sort_uniq compare all) = List.length all
      && List.for_all (fun n -> not (List.mem n names)) produced)

let test_rename_locals () =
  let stmts =
    Parser.parse_stmts_string "int i = 0; float v = i + 1; i = i + 2;"
  in
  let pool = Rename.of_names [ "i" ] in
  let stmts', table = Rename.rename_locals pool stmts in
  Alcotest.(check (option string))
    "i renamed" (Some "i_1")
    (Hashtbl.find_opt table "i");
  let used = Ast_util.used_names stmts' in
  Alcotest.(check bool) "no free i left" false (Ast_util.StrSet.mem "i" used);
  Alcotest.(check bool) "i_1 used" true (Ast_util.StrSet.mem "i_1" used)

let test_uniquify_shadowing () =
  let stmts =
    Parser.parse_stmts_string
      "int x = 1; { int x = 2; y = x; } z = x; for (int x = 0; x < 3; x++) { w = x; }"
  in
  let stmts' = Rename.uniquify_shadowing stmts in
  let decls = Ast_util.declared_names stmts' in
  Alcotest.(check int)
    "all decls distinct"
    (List.length decls)
    (List.length (List.sort_uniq compare decls));
  (* semantics: outer x still reaches z *)
  let printed = String.concat " " (List.map Pretty.stmt_to_string stmts') in
  Alcotest.(check bool) "inner ref renamed" true
    (Test_util.contains printed "y = x_1")

let test_rename_labels () =
  let stmts = Parser.parse_stmts_string "goto K1_end; K1_end: ;" in
  let pool = Rename.of_names [ "K1_end" ] in
  let stmts' = Rename.rename_labels pool stmts in
  match List.map (fun (s : Ast.stmt) -> s.s) stmts' with
  | [ Ast.Goto g; Ast.Label l; Ast.Nop ] ->
      Alcotest.(check string) "goto follows label rename" l g;
      Alcotest.(check bool) "renamed" true (l <> "K1_end")
  | _ -> Alcotest.fail "unexpected statement shape"

(* -- Lift_decls ------------------------------------------------------ *)

let test_lift_basic () =
  let _, f =
    Test_util.kernel_of_source
      {|
__global__ void k(int n, float* a) {
  int i = 2 * n;
  if (n > 0) { float t = a[0]; a[1] = t; }
  for (int j = 0; j < n; j++) { a[j] = 0.0f; }
}
|}
  in
  let f' = Lift_decls.lift_fn f in
  Alcotest.(check bool) "is lifted" true (Lift_decls.is_lifted f'.f_body);
  (* initializers must have become assignments at the original sites *)
  let printed = Pretty.fn_to_string f' in
  Alcotest.(check bool) "init preserved" true
    (Test_util.contains printed "i = 2 * n;");
  Alcotest.(check bool) "for header keeps assignment" true
    (Test_util.contains printed "for (j = 0;");
  (* declared names survive *)
  let names = Ast_util.declared_names f'.f_body in
  List.iter
    (fun n -> Alcotest.(check bool) ("decl " ^ n) true (List.mem n names))
    [ "i"; "t"; "j" ]

let test_lift_shared_first () =
  let _, f =
    Test_util.kernel_of_source
      {|
__global__ void k(int n) {
  int i = 0;
  __shared__ float buf[32];
  buf[i] = 0.0f;
}
|}
  in
  let f' = Lift_decls.lift_fn f in
  match f'.f_body with
  | { s = Ast.Decl d; _ } :: _ ->
      Alcotest.(check string) "shared decl first" "buf" d.d_name
  | _ -> Alcotest.fail "expected a leading declaration"

let test_lift_idempotent () =
  let _, f =
    Test_util.kernel_of_source
      "__global__ void k(int n) { int a = 1; int b = a + n; }"
  in
  let once = Lift_decls.lift_fn f in
  let twice = Lift_decls.lift_fn once in
  Alcotest.(check bool) "idempotent" true
    (Ast_util.equal_normalized once.f_body twice.f_body)

(* -- Inline ---------------------------------------------------------- *)

let test_inline_expression_fn () =
  let prog =
    Parser.parse_program
      {|
__device__ uint32_t fnv(uint32_t a, uint32_t b) { return (a * 16777619u) ^ b; }
__global__ void k(uint32_t* out) { out[0] = fnv(fnv(1u, 2u), 3u); }
|}
  in
  let k = List.hd (Ast.kernels prog) in
  let k' = Inline.inline_fn prog k in
  Alcotest.(check bool) "no calls left" true
    (Ast_util.StrSet.is_empty
       (Ast_util.StrSet.filter
          (fun c -> c = "fnv")
          (Ast_util.called_names k'.f_body)))

let test_inline_void_fn () =
  let prog =
    Parser.parse_program
      {|
__device__ void store2(float* p, float v) { p[0] = v; p[1] = v; }
__global__ void k(float* a) { store2(a, 3.0f); }
|}
  in
  let k = List.hd (Ast.kernels prog) in
  let k' = Inline.inline_fn prog k in
  Alcotest.(check bool) "no calls left" true
    (not (Ast_util.StrSet.mem "store2" (Ast_util.called_names k'.f_body)));
  let printed = Pretty.fn_to_string k' in
  Alcotest.(check bool) "parameter bound" true
    (Test_util.contains printed "store2_p")

let test_inline_rejects_recursion () =
  let prog =
    Parser.parse_program
      {|
__device__ int f(int n) { return g(n); }
__device__ int g(int n) { return f(n); }
__global__ void k(int* a) { a[0] = f(1); }
|}
  in
  let k = List.hd (Ast.kernels prog) in
  match Inline.inline_fn prog k with
  | exception Inline.Error msg ->
      Alcotest.(check bool) "mentions recursion" true
        (Test_util.contains msg "recursive")
  | _ -> Alcotest.fail "expected recursion error"

let test_inline_rejects_effectful_dup () =
  let prog =
    Parser.parse_program
      {|
__device__ int dup(int x) { return x + x; }
__global__ void k(int* a, int n) { a[0] = dup(n++); }
|}
  in
  let k = List.hd (Ast.kernels prog) in
  match Inline.inline_fn prog k with
  | exception Inline.Error msg ->
      Alcotest.(check bool) "mentions side effects" true
        (Test_util.contains msg "side effects")
  | _ -> Alcotest.fail "expected duplication error"

let test_normalize_pipeline () =
  let prog, k =
    Test_util.kernel_of_source
      {|
__device__ float sq(float x) { return x * x; }
__global__ void k(float* a, int n) {
  for (int i = 0; i < n; i++) { float v = sq(a[i]); a[i] = v; }
}
|}
  in
  let k' = Inline.normalize_kernel prog k in
  Alcotest.(check bool) "lifted" true (Lift_decls.is_lifted k'.f_body);
  Alcotest.(check bool) "inlined" true
    (not (Ast_util.StrSet.mem "sq" (Ast_util.called_names k'.f_body)))

(* -- Builtins -------------------------------------------------------- *)

let test_builtin_replacement () =
  let stmts =
    Parser.parse_stmts_string
      "x = threadIdx.x + blockDim.x * blockIdx.x; y = threadIdx.y;"
  in
  let m =
    Builtins.of_vars ~tid_x:"t0" ~tid_y:"t1" ~tid_z:"t2" ~bdim_x:"b0"
      ~bdim_y:"b1" ~bdim_z:"b2"
  in
  let printed =
    String.concat " "
      (List.map Pretty.stmt_to_string (Builtins.replace m stmts))
  in
  Alcotest.(check bool) "tid.x replaced" true
    (Test_util.contains printed "x = t0 + b0 * blockIdx.x;");
  Alcotest.(check bool) "tid.y replaced" true
    (Test_util.contains printed "y = t1;");
  Alcotest.(check bool) "blockIdx untouched" true
    (Test_util.contains printed "blockIdx.x")

let test_uses_multidim () =
  let s1 = Parser.parse_stmts_string "x = threadIdx.x;" in
  let s2 = Parser.parse_stmts_string "x = threadIdx.y;" in
  Alcotest.(check bool) "1-D" false (Builtins.uses_multidim s1);
  Alcotest.(check bool) "2-D" true (Builtins.uses_multidim s2)

(* Normalising a normalised kernel changes nothing: a launch takes
   the normalised body, so normalising once (per configured kernel) and
   normalising at every launch must run the same program.  Compared as
   printed bytes over every fleet corpus kernel and 100 fuzzer
   programs. *)
let test_normalize_idempotent () =
  let check label (prog : Ast.program) (fn : Ast.fn) =
    let once = Inline.normalize_kernel prog fn in
    let twice = Inline.normalize_kernel prog once in
    Alcotest.(check string) label (Pretty.fn_to_string once)
      (Pretty.fn_to_string twice)
  in
  List.iter
    (fun (s : Kernel_corpus.Spec.t) ->
      let prog, fn = Kernel_corpus.Spec.parse s in
      check s.name prog fn)
    (Hfuse_fleet.Corpus.all_specs ());
  for seed = 0 to 99 do
    List.iter
      (fun (k : Hfuse_fuzz.Gen.kernel) ->
        check
          (Printf.sprintf "fuzz %d %s" seed k.g_info.fn.f_name)
          k.g_info.prog k.g_info.fn)
      (Hfuse_fuzz.Gen.generate_case ~seed ()).c_kernels
  done

(* The passes share what they leave alone: a body with no shadowing
   comes back from uniquification as the very same list, and a kernel
   calling no device function from inlining as the very same kernel. *)
let test_passes_share_unchanged () =
  let prog, k =
    Test_util.kernel_of_source
      "__device__ int sq(int x) { return x * x; }\n\
       __global__ void k(int *a) {\n\
      \  int i = threadIdx.x;\n\
      \  if (i < 4) { int j = i + 1; a[i] = j; }\n\
       }"
  in
  Alcotest.(check bool) "uniquify shares" true
    (Rename.uniquify_shadowing k.f_body == k.f_body);
  Alcotest.(check bool) "inline shares" true (Inline.inline_fn prog k == k)

let suite =
  [
    Alcotest.test_case "fresh names" `Quick test_fresh_names;
    Alcotest.test_case "rename locals" `Quick test_rename_locals;
    Alcotest.test_case "uniquify shadowing" `Quick test_uniquify_shadowing;
    Alcotest.test_case "rename labels" `Quick test_rename_labels;
    Alcotest.test_case "lift basic" `Quick test_lift_basic;
    Alcotest.test_case "lift shared first" `Quick test_lift_shared_first;
    Alcotest.test_case "lift idempotent" `Quick test_lift_idempotent;
    Alcotest.test_case "inline expression fn" `Quick test_inline_expression_fn;
    Alcotest.test_case "inline void fn" `Quick test_inline_void_fn;
    Alcotest.test_case "inline rejects recursion" `Quick
      test_inline_rejects_recursion;
    Alcotest.test_case "inline rejects effectful dup" `Quick
      test_inline_rejects_effectful_dup;
    Alcotest.test_case "normalize pipeline" `Quick test_normalize_pipeline;
    Alcotest.test_case "normalize idempotent" `Quick test_normalize_idempotent;
    Alcotest.test_case "passes share unchanged subtrees" `Quick
      test_passes_share_unchanged;
    Alcotest.test_case "builtin replacement" `Quick test_builtin_replacement;
    Alcotest.test_case "uses_multidim" `Quick test_uses_multidim;
  ]
  @ Test_util.qcheck_cases [ fresh_prop ]
