(* Ast_util traversal/query tests and Resource_model estimation tests. *)

open Cuda

let stmts = Parser.parse_stmts_string

let test_collect_decls () =
  let s =
    stmts
      "int a; if (x) { float b; } for (int c = 0; c < 2; c++) { int d; } \
       { int e; }"
  in
  Alcotest.(check (list string)) "all decls in order"
    [ "a"; "b"; "c"; "d"; "e" ]
    (Ast_util.declared_names s)

let test_free_names () =
  let s = stmts "int a = x + 1; y = a + z;" in
  Alcotest.(check (list string)) "free names"
    [ "x"; "y"; "z" ]
    (Ast_util.StrSet.elements (Ast_util.free_names s))

let test_called_and_labels () =
  let s = stmts "foo(bar(1)); lbl: baz(); goto lbl;" in
  Alcotest.(check (list string)) "calls" [ "bar"; "baz"; "foo" ]
    (Ast_util.StrSet.elements (Ast_util.called_names s));
  Alcotest.(check (list string)) "labels" [ "lbl" ]
    (Ast_util.StrSet.elements (Ast_util.labels s))

let test_barriers_and_builtins () =
  let s =
    stmts
      "__syncthreads(); asm(\"bar.sync 1, 64;\"); x = threadIdx.x + \
       blockDim.y;"
  in
  Alcotest.(check int) "barrier count" 2 (Ast_util.barrier_count s);
  Alcotest.(check bool) "has barrier" true (Ast_util.has_barrier s);
  Alcotest.(check int) "builtins" 2 (List.length (Ast_util.used_builtins s))

let test_map_stmts_expansion () =
  (* map_stmts may expand one statement into several, recursively *)
  let s = stmts "x = 1; if (c) { y = 2; }" in
  let doubled =
    Ast_util.map_stmts
      (fun st ->
        match st.s with Ast.Expr _ -> [ st; st ] | _ -> [ st ])
      s
  in
  let count =
    Ast_util.fold_stmts
      (fun n st -> match st.s with Ast.Expr _ -> n + 1 | _ -> n)
      0 doubled
  in
  Alcotest.(check int) "expressions doubled" 4 count

let test_subst_vars () =
  let s = stmts "int x = n; y[x] = n + m;" in
  let table = Hashtbl.create 2 in
  Hashtbl.replace table "n" (Parser.parse_expr_string "a * 2");
  let s' = Ast_util.subst_vars table s in
  let printed = String.concat " " (List.map Pretty.stmt_to_string s') in
  Alcotest.(check bool) "n replaced everywhere" true
    (Test_util.contains printed "int x = a * 2;"
    && Test_util.contains printed "y[x] = a * 2 + m;")

let test_rename_preserves_structure () =
  let s = stmts "int i = 0; for (i = 0; i < 9; i++) { acc += i; }" in
  let table = Hashtbl.create 1 in
  Hashtbl.replace table "i" "j";
  let s' = Ast_util.rename_stmts table s in
  Alcotest.(check (list string)) "decl renamed" [ "j" ]
    (Ast_util.declared_names s');
  Alcotest.(check bool) "no i left" false
    (Ast_util.StrSet.mem "i" (Ast_util.used_names s'))

let test_normalize () =
  let a = stmts "{ x = 1; ; { y = 2; } }" in
  let b = stmts "x = 1; y = 2;" in
  Alcotest.(check bool) "normalised equal" true
    (Ast_util.equal_normalized a b);
  Alcotest.(check bool) "raw not equal" false (Ast_util.equal_stmts a b)

(* -- Resource_model ---------------------------------------------------- *)

let test_reg_costs () =
  Alcotest.(check int) "int = 1" 1 (Gpusim.Resource_model.reg_cost_of_type Ctype.Int);
  Alcotest.(check int) "u64 = 2" 2
    (Gpusim.Resource_model.reg_cost_of_type Ctype.ULong);
  Alcotest.(check int) "ptr = 2" 2
    (Gpusim.Resource_model.reg_cost_of_type (Ctype.Ptr Ctype.Float));
  Alcotest.(check int) "array = 0 (not register-resident)" 0
    (Gpusim.Resource_model.reg_cost_of_type (Ctype.Array (Ctype.Int, Some 8)))

let test_estimate_monotone () =
  let est src =
    let _, fn = Test_util.kernel_of_source src in
    Gpusim.Resource_model.estimate_fn fn
  in
  let small = est "__global__ void k(float* a) { a[0] = 1.0f; }" in
  let big =
    est
      "__global__ void k(float* a, float* b, int n) { float x = 0.0f; \
       float y = 1.0f; float z = 2.0f; uint64_t w = 0ull; a[0] = x + y + z \
       + (float)w; }"
  in
  Alcotest.(check bool) "more locals, more registers" true (big > small);
  Alcotest.(check bool) "within hardware range" true
    (small >= 16 && big <= 255)

let test_estimate_depth () =
  Alcotest.(check int) "leaf depth" 0
    (Gpusim.Resource_model.expr_depth (Parser.parse_expr_string "x"));
  Alcotest.(check int) "chain depth" 3
    (Gpusim.Resource_model.expr_depth
       (Parser.parse_expr_string "((a + b) + c) + d"))

let test_calibration_preferred () =
  let s = Kernel_corpus.Registry.find_exn "Blake256" in
  let mem = Gpusim.Memory.create () in
  let inst = s.instantiate mem ~size:1 in
  let info = Kernel_corpus.Spec.kernel_info s inst in
  Alcotest.(check int) "calibrated value wins" s.regs
    (Gpusim.Resource_model.regs_of_info info);
  Alcotest.(check bool) "estimator used when uncalibrated" true
    (Gpusim.Resource_model.regs_of_info { info with regs = 0 } >= 16)

(* The maps rebuild only the path to a change: identity rewrites
   return the input itself, and renaming one variable leaves every
   statement that does not mention it physically shared. *)
let test_maps_share () =
  let body =
    stmts "int a = 1; if (a) { b = a; } else { c = 2; } for (;;) { d = 3; }"
  in
  Alcotest.(check bool) "map_stmts_expr identity" true
    (Ast_util.map_stmts_expr Fun.id body == body);
  Alcotest.(check bool) "map_stmts identity" true
    (Ast_util.map_stmts (fun s -> [ s ]) body == body);
  let renamed =
    Ast_util.map_stmts_expr
      (function Ast.Var "b" -> Ast.Var "b2" | e -> e)
      body
  in
  match (body, renamed) with
  | [ a; { s = If (c, t, e); _ }; f ], [ a'; { s = If (c', t', e'); _ }; f' ]
    ->
      Alcotest.(check bool) "untouched statements shared" true
        (a == a' && f == f' && c == c' && e == e');
      Alcotest.(check bool) "changed branch rebuilt" false (t == t');
      Alcotest.(check string) "rewritten" "b2 = a;"
        (String.trim (Pretty.stmt_to_string (List.hd t')))
  | _ -> Alcotest.fail "unexpected statement shapes"

let suite =
  [
    Alcotest.test_case "maps share unchanged subtrees" `Quick test_maps_share;
    Alcotest.test_case "collect decls" `Quick test_collect_decls;
    Alcotest.test_case "free names" `Quick test_free_names;
    Alcotest.test_case "calls and labels" `Quick test_called_and_labels;
    Alcotest.test_case "barriers and builtins" `Quick
      test_barriers_and_builtins;
    Alcotest.test_case "map_stmts expansion" `Quick test_map_stmts_expansion;
    Alcotest.test_case "subst vars" `Quick test_subst_vars;
    Alcotest.test_case "rename preserves structure" `Quick
      test_rename_preserves_structure;
    Alcotest.test_case "normalize" `Quick test_normalize;
    Alcotest.test_case "register type costs" `Quick test_reg_costs;
    Alcotest.test_case "estimate monotone" `Quick test_estimate_monotone;
    Alcotest.test_case "expression depth" `Quick test_estimate_depth;
    Alcotest.test_case "calibration preferred" `Quick
      test_calibration_preferred;
  ]
