(* The repair engine: one regression per serviceable [Diag.kind]
   strategy, the unserviceable negatives, a qcheck byte-identity
   property over repaired fusions (the differential gate must agree
   with every admitted repair), the corpus-wide spot-check that every
   fully-rejected registry pair is repairable, and [Runner.search
   ~repair] determinism across worker counts. *)

open Cuda
open Hfuse_core
module Diag = Hfuse_analysis.Diag
module V = Hfuse_analysis.Verifier
module Repair = Hfuse_repair.Repair
module Gen = Hfuse_fuzz.Gen
module Oracle = Hfuse_fuzz.Oracle
module Runner = Hfuse_profiler.Runner
module Profile_cache = Hfuse_profiler.Profile_cache
module Settings = Hfuse_profiler.Settings
module Registry = Kernel_corpus.Registry
module Spec = Kernel_corpus.Spec

let info = Test_util.info_of_source

let ok_exn = function
  | Ok r -> r
  | Error f -> Alcotest.failf "repair failed: %a" Repair.pp_failure f

let has_action (acts : Repair.action list) tag =
  List.exists (fun (a : Repair.action) -> a.Repair.a_tag = tag) acts

let rejects k1 k2 =
  match Hfuse.generate k1 k2 with
  | _ -> false
  | exception Diag.Unsafe_fusion _ -> true

(* -- per-strategy regressions ------------------------------------------ *)

(* each already fused once: both carry a hardware barrier on id 1 *)
let k_bar1 name =
  Fmt.str
    {|
__global__ void %s(float* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  asm("bar.sync 1, 128;");
  if (i < n) { a[i] = a[i] + 1.0f; }
}
|}
    name

let k_plain =
  {|
__global__ void plain(float* b, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { b[i] = b[i] * 2.0f; }
}
|}

let test_repairs_barrier_id_collision () =
  let k1 = info ~block:(128, 1, 1) (k_bar1 "left") in
  let k2 = info ~block:(128, 1, 1) (k_bar1 "right") in
  Alcotest.(check bool) "pair starts rejected" true (rejects k1 k2);
  let r = ok_exn (Repair.attempt k1 k2) in
  Alcotest.(check bool) "renumbered a barrier" true
    (has_action r.Repair.actions "renumber-barrier");
  Alcotest.(check bool) "repaired fusion verifies clean" true
    (Diag.is_clean (Hfuse.verify r.Repair.fused))

let test_repairs_oversized_count () =
  (* a pre-existing barrier waiting for more threads than its side owns *)
  let src =
    {|
__global__ void wide(float* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  asm("bar.sync 5, 256;");
  if (i < n) { a[i] = a[i] + 1.0f; }
}
|}
  in
  let k1 = info ~block:(128, 1, 1) ~tunability:Kernel_info.Fixed src in
  let k2 = info ~block:(128, 1, 1) ~tunability:Kernel_info.Fixed k_plain in
  Alcotest.(check bool) "pair starts rejected" true (rejects k1 k2);
  let r = ok_exn (Repair.attempt k1 k2) in
  Alcotest.(check bool) "count rewritten to the side's partition" true
    (has_action r.Repair.actions "set-barrier-count");
  Alcotest.(check bool) "repaired fusion verifies clean" true
    (Diag.is_clean (Hfuse.verify r.Repair.fused))

let test_repairs_uniform_write_race () =
  let racy =
    {|
__global__ void racy(float* a, int n) {
  __shared__ float acc[32];
  acc[0] = a[threadIdx.x];
  __syncthreads();
  if (threadIdx.x < n) { a[threadIdx.x] = acc[0]; }
}
|}
  in
  let k1 = info ~block:(128, 1, 1) ~tunability:Kernel_info.Fixed racy in
  let k2 = info ~block:(128, 1, 1) ~tunability:Kernel_info.Fixed k_plain in
  Alcotest.(check bool) "pair starts rejected" true (rejects k1 k2);
  let r = ok_exn (Repair.attempt k1 k2) in
  Alcotest.(check bool) "write elected behind a leader" true
    (has_action r.Repair.actions "guard-shared-write");
  Alcotest.(check bool) "repaired fusion verifies clean" true
    (Diag.is_clean (Hfuse.verify r.Repair.fused))

let test_repairs_over_budget_registers () =
  (* 512 + 512 threads at ~200 registers each blow the 64K-register SM;
     the only residency-restoring bound is 65536/1024 = 64 *)
  let heavy name =
    Fmt.str
      {|
__global__ void %s(float* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { a[i] = a[i] + 1.0f; }
}
|}
      name
  in
  let k1 =
    info ~block:(512, 1, 1) ~regs:200 ~tunability:Kernel_info.Fixed
      (heavy "h1")
  in
  let k2 =
    info ~block:(512, 1, 1) ~regs:200 ~tunability:Kernel_info.Fixed
      (heavy "h2")
  in
  Alcotest.(check bool) "pair starts rejected" true (rejects k1 k2);
  let r = ok_exn (Repair.attempt k1 k2) in
  Alcotest.(check bool) "register bound forced" true
    (has_action r.Repair.actions "bound-registers");
  Alcotest.(check (option int)) "residency bound" (Some 64) r.Repair.reg_bound;
  let fused = r.Repair.fused in
  let regs =
    match r.Repair.reg_bound with
    | Some b -> min b fused.Hfuse.regs
    | None -> fused.Hfuse.regs
  in
  Alcotest.(check bool) "clean under the forced bound" true
    (Diag.is_clean
       (V.verify
          ~threads:(Hfuse.threads_per_block fused)
          ~regs ~smem_dynamic:fused.Hfuse.smem_dynamic fused.Hfuse.sides))

let test_divergent_barrier_unserviceable () =
  let divergent =
    {|
__global__ void div_bar(float* a, int n) {
  __shared__ float buf[128];
  int i = threadIdx.x;
  if (i < 32) {
    buf[i] = a[i];
    __syncthreads();
  }
  if (i < n) { a[i] = buf[0]; }
}
|}
  in
  let k1 = info ~block:(128, 1, 1) ~tunability:Kernel_info.Fixed divergent in
  let k2 = info ~block:(128, 1, 1) ~tunability:Kernel_info.Fixed k_plain in
  Alcotest.(check bool) "pair starts rejected" true (rejects k1 k2);
  match Repair.attempt k1 k2 with
  | Ok _ -> Alcotest.fail "divergent barriers must be unserviceable"
  | Error (Repair.Unserviceable ds) ->
      Alcotest.(check bool) "diagnostics preserved" true
        (List.exists
           (fun (d : Diag.t) ->
             match d.Diag.kind with
             | Diag.Divergent_barrier _ -> true
             | _ -> false)
           ds)
  | Error f -> Alcotest.failf "expected Unserviceable, got %a" Repair.pp_failure f

(* -- sides-level strategies (the check verb's path) -------------------- *)

let test_sides_repairs_full_barrier () =
  let half = V.side ~label:"half" ~count:128 [ Ast.mk_stmt Ast.Sync ] in
  let rest = V.side ~label:"rest" ~count:128 [] in
  let before = V.verify ~threads:256 ~regs:32 ~smem_dynamic:0 [ half; rest ] in
  Alcotest.(check bool) "full barrier rejected first" false
    (Diag.is_clean before);
  let r =
    ok_exn
      (Repair.repair_sides ~threads:256 ~regs:32 ~smem_dynamic:0
         [ half; rest ])
  in
  Alcotest.(check bool) "rewritten to a counted barrier" true
    (has_action r.Repair.r_actions "partial-barrier");
  Alcotest.(check bool) "repaired sides verify clean" true
    (Diag.is_clean
       (V.verify ~threads:256 ~regs:32 ~smem_dynamic:r.Repair.r_smem_dynamic
          r.Repair.r_sides))

let test_sides_rebases_overlap () =
  let region name off bytes =
    { V.r_name = name; r_bytes = bytes; r_offset = off; r_dynamic = true }
  in
  let s1 = V.side ~label:"left" ~count:128 ~shared:[ region "lbuf" 0 512 ] [] in
  let s2 =
    V.side ~label:"right" ~count:128 ~shared:[ region "rbuf" 256 512 ] []
  in
  let r =
    ok_exn
      (Repair.repair_sides ~threads:256 ~regs:16 ~smem_dynamic:768 [ s1; s2 ])
  in
  Alcotest.(check bool) "regions re-based" true
    (has_action r.Repair.r_actions "rebase-shared-regions");
  Alcotest.(check int) "serial 16-aligned total" 1024 r.Repair.r_smem_dynamic;
  Alcotest.(check bool) "repaired sides verify clean" true
    (Diag.is_clean
       (V.verify ~threads:256 ~regs:16 ~smem_dynamic:r.Repair.r_smem_dynamic
          r.Repair.r_sides))

(* -- byte-identity: the differential gate agrees with every repair ----- *)

(* prepend [bar.sync 1, blockDim] to a generated kernel: doing it to
   both sides of a pair manufactures a guaranteed id collision (and
   usually a count mismatch after partitioning) that repair must
   renumber/recount without changing observable bytes *)
let prepend_bar1 (k : Gen.kernel) : Gen.kernel =
  let ki = k.Gen.g_info in
  let threads = Kernel_info.threads_per_block ki in
  let bar = Ast.mk_stmt (Ast.Bar_sync (1, threads)) in
  let fn = { ki.Kernel_info.fn with Ast.f_body = bar :: ki.Kernel_info.fn.Ast.f_body } in
  let functions =
    List.map
      (fun (f : Ast.fn) ->
        if String.equal f.Ast.f_name fn.Ast.f_name then fn else f)
      ki.Kernel_info.prog.Ast.functions
  in
  {
    k with
    Gen.g_info =
      { ki with Kernel_info.fn; prog = { ki.Kernel_info.prog with Ast.functions } };
  }

let prop_injected_collision_repair_sound =
  QCheck.Test.make ~name:"repaired fusions are byte-identical" ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let case =
        Gen.generate_case ~weights:Gen.default_weights ~max_kernels:2 ~seed ()
      in
      match case.Gen.c_kernels with
      | [ k1; k2 ] -> (
          let case =
            { case with Gen.c_kernels = [ prepend_bar1 k1; prepend_bar1 k2 ] }
          in
          match Oracle.run case with
          | Oracle.Rejected _ -> (
              match case.Gen.c_kernels with
              | [ k1'; k2' ] -> (
                  match Repair.attempt k1'.Gen.g_info k2'.Gen.g_info with
                  | Error _ -> true (* failing closed is always sound *)
                  | Ok r -> (
                      match Oracle.run_repaired case r.Repair.fused with
                      | Oracle.Equivalent -> true
                      | Oracle.Invalid_input _ ->
                          true (* the unfused reference itself broke *)
                      | v ->
                          QCheck.Test.fail_reportf "unsound repair: %s"
                            (Oracle.verdict_to_string v)))
              | _ -> true)
          | _ -> true (* the injected collision did not bite; vacuous *))
      | _ -> true)

(* -- corpus: every fully-rejected registry pair is repairable ---------- *)

let test_corpus_rejected_pairs_all_repairable () =
  let specs = Array.of_list Registry.extended in
  let n = Array.length specs in
  let rejected_pairs = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let s1 = specs.(i) and s2 = specs.(j) in
      let mem = Gpusim.Memory.create () in
      let k1 = Spec.kernel_info s1 (s1.Spec.instantiate mem ~size:1) in
      let k2 = Spec.kernel_info s2 (s2.Spec.instantiate mem ~size:1) in
      let parts = Partition.enumerate k1 k2 ~d0:1024 in
      let rejections =
        List.filter_map
          (fun { Partition.d1; d2 } ->
            let c1 = Kernel_info.with_block_dim k1 d1 in
            let c2 = Kernel_info.with_block_dim k2 d2 in
            match Hfuse.generate c1 c2 with
            | _ -> None
            | exception Diag.Unsafe_fusion _ -> Some (c1, c2))
          parts
      in
      if parts <> [] && List.length rejections = List.length parts then begin
        incr rejected_pairs;
        let c1, c2 = List.hd rejections in
        let r =
          match Repair.attempt c1 c2 with
          | Ok r -> r
          | Error f ->
              Alcotest.failf "%s+%s unrepairable: %a" s1.Spec.name s2.Spec.name
                Repair.pp_failure f
        in
        Alcotest.(check bool)
          (Fmt.str "%s+%s repaired via a register bound" s1.Spec.name
             s2.Spec.name)
          true
          (has_action r.Repair.actions "bound-registers"
          && r.Repair.reg_bound <> None)
      end
    done
  done;
  (* the honest census EXPERIMENTS.md reports: the crypto kernels'
     register appetite rejects every pairing with the wider corpus *)
  Alcotest.(check int) "36 fully-rejected registry pairs" 36 !rejected_pairs

(* -- Runner.search ~repair: admission, gating, determinism ------------- *)

let search_repaired ~jobs =
  Runner.clear_cache ();
  let mem = Gpusim.Memory.create () in
  let c1 = Runner.configure mem (Registry.find_exn "Maxpool") ~size:1 in
  let c2 = Runner.configure mem (Registry.find_exn "SHA256") ~size:1 in
  Ledger.run (fun () ->
      Runner.search ~jobs
        ~settings:(Settings.resolve ~cache_dir:None ~fault:None ())
        ~cache:(Profile_cache.disabled ()) ~repair:true
        Gpusim.Arch.gtx1080ti c1 c2)

let cand_sig (r : Search.result) =
  List.map
    (fun (c : Search.candidate) ->
      ( c.Search.fused.Hfuse.d1,
        c.Search.fused.Hfuse.d2,
        c.Search.config.Search.reg_bound,
        c.Search.repaired,
        c.Search.time ))
    r.Search.all

let test_search_repair_admits_rejected_pair () =
  (* without repair the pair has no valid partition at all *)
  (let mem = Gpusim.Memory.create () in
   let c1 = Runner.configure mem (Registry.find_exn "Maxpool") ~size:1 in
   let c2 = Runner.configure mem (Registry.find_exn "SHA256") ~size:1 in
   match
     Runner.search
       ~settings:(Settings.resolve ~cache_dir:None ~fault:None ())
       ~cache:(Profile_cache.disabled ()) Gpusim.Arch.gtx1080ti c1 c2
   with
   | _ -> Alcotest.fail "expected No_valid_partition without repair"
   | exception Search.No_valid_partition _ -> ());
  let r, ledger = search_repaired ~jobs:1 in
  let n = Ledger.get ledger in
  Alcotest.(check int) "nothing admitted directly" 0 r.Search.admitted;
  Alcotest.(check bool) "at least one partition repaired" true
    (r.Search.repaired >= 1);
  Alcotest.(check bool) "best candidate carries provenance" true
    r.Search.best.Search.repaired;
  Alcotest.(check bool) "stats agree" true (n Runner.Counters.repaired >= 1);
  Alcotest.(check int) "no unsound repairs" 0 (n Runner.Counters.repair_unsound);
  Alcotest.(check bool) "attempts cover admissions" true
    (n Runner.Counters.repair_attempted >= n Runner.Counters.repaired)

let test_search_repair_deterministic_across_jobs () =
  let base, _ = search_repaired ~jobs:1 in
  let wide, _ = search_repaired ~jobs:4 in
  Alcotest.(check bool) "candidates identical at -j 4" true
    (cand_sig wide = cand_sig base)

let suite =
  [
    Alcotest.test_case "repairs barrier-id collision" `Quick
      test_repairs_barrier_id_collision;
    Alcotest.test_case "repairs oversized count" `Quick
      test_repairs_oversized_count;
    Alcotest.test_case "repairs uniform-write race" `Quick
      test_repairs_uniform_write_race;
    Alcotest.test_case "repairs over-budget registers" `Quick
      test_repairs_over_budget_registers;
    Alcotest.test_case "divergent barrier unserviceable" `Quick
      test_divergent_barrier_unserviceable;
    Alcotest.test_case "sides: full barrier to counted" `Quick
      test_sides_repairs_full_barrier;
    Alcotest.test_case "sides: overlap re-based" `Quick
      test_sides_rebases_overlap;
    Alcotest.test_case "corpus rejected pairs repairable" `Slow
      test_corpus_rejected_pairs_all_repairable;
    Alcotest.test_case "search --repair admits rejected pair" `Slow
      test_search_repair_admits_rejected_pair;
    Alcotest.test_case "search --repair deterministic" `Slow
      test_search_repair_deterministic_across_jobs;
  ]
  @ Test_util.qcheck_cases [ prop_injected_collision_repair_sound ]
