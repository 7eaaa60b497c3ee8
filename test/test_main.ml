let () =
  Alcotest.run "hfuse"
    [
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("pretty", Test_pretty.suite);
      ("typecheck", Test_typecheck.suite);
      ("frontend", Test_frontend.suite);
      ("ast-util", Test_astutil.suite);
      ("fusion", Test_fusion.suite);
      ("occupancy", Test_occupancy.suite);
      ("verifier", Test_verifier.suite);
      ("search", Test_search.suite);
      ("costmodel", Test_costmodel.suite);
      ("value", Test_value.suite);
      ("memory", Test_memory.suite);
      ("interp", Test_interp.suite);
      ("timing", Test_timing.suite);
      ("fault", Test_fault.suite);
      ("parallel", Test_parallel.suite);
      ("profiler", Test_profiler.suite);
      ("analyzer", Test_analyzer.suite);
      ("ptx", Test_ptx.suite);
      ("kernels", Test_kernels.suite);
      ("equivalence", Test_equivalence.suite);
      ("differential", Test_diff.suite);
      ("engine-diff", Test_engine_diff.suite);
      ("fuzz", Test_fuzz.suite);
      ("repair", Test_repair.suite);
      ("serve", Test_serve.suite);
      ("fleet", Test_fleet.suite);
      ("store", Test_store.suite);
    ]
