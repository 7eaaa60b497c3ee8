(* The headline integration property: a horizontally fused kernel is
   functionally equivalent to its two inputs — both kernels' outputs
   match their host references after running only the fused kernel.
   Checked for every benchmark pair of the evaluation, plus vertical
   fusion where it is legal, plus a partition sweep for one pair. *)

open Kernel_corpus
open Hfuse_profiler

(* small sizes: these run the whole grid functionally *)
let size_for (s : Spec.t) = match s.kind with Spec.Crypto -> 1 | _ -> 2

let partition_for (s1 : Spec.t) (s2 : Spec.t) =
  (* fixed kernels keep native sizes; tunable pairs use an uneven split
     to exercise the builtin remapping *)
  match (s1.tunability, s2.tunability) with
  | Hfuse_core.Kernel_info.Fixed, Hfuse_core.Kernel_info.Fixed ->
      let d (s : Spec.t) =
        let x, y, z = s.native_block in
        x * y * z
      in
      (d s1, d s2)
  | Hfuse_core.Kernel_info.Fixed, _ ->
      let x, y, z = s1.native_block in
      (x * y * z, 1024 - (x * y * z))
  | _, Hfuse_core.Kernel_info.Fixed ->
      let x, y, z = s2.native_block in
      (1024 - (x * y * z), x * y * z)
  | _ -> (640, 384)

let hfuse_case ((s1, s2) : Spec.t * Spec.t) =
  Alcotest.test_case
    (Printf.sprintf "hfuse %s+%s" s1.name s2.name)
    `Slow
    (fun () ->
      let d1, d2 = partition_for s1 s2 in
      let settings = Test_util.env_settings () in
      match
        Runner.validate_hfuse ~settings s1 ~size1:(size_for s1) s2
          ~size2:(size_for s2) ~d1 ~d2
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

let vfuse_case ((s1, s2) : Spec.t * Spec.t) =
  Alcotest.test_case
    (Printf.sprintf "vfuse %s+%s" s1.name s2.name)
    `Slow
    (fun () ->
      let settings = Test_util.env_settings () in
      match
        Runner.validate_vfuse ~settings s1 ~size1:(size_for s1) s2
          ~size2:(size_for s2)
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

(* Every legal partition of one barrier-heavy pair must be equivalent —
   the partition only changes performance, never results. *)
let test_partition_sweep () =
  let s1 = Registry.find_exn "Batchnorm" and s2 = Registry.find_exn "Hist" in
  let settings = Test_util.env_settings () in
  List.iter
    (fun d1 ->
      match
        Runner.validate_hfuse ~settings s1 ~size1:2 s2 ~size2:2 ~d1
          ~d2:(1024 - d1)
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "partition %d/%d: %s" d1 (1024 - d1) e)
    [ 128; 512; 896 ]

(* Fusing in the opposite order must also be equivalent. *)
let test_order_independence () =
  let s1 = Registry.find_exn "Hist" and s2 = Registry.find_exn "Maxpool" in
  let settings = Test_util.env_settings () in
  (match Runner.validate_hfuse ~settings s1 ~size1:2 s2 ~size2:2 ~d1:256 ~d2:256 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Runner.validate_hfuse ~settings s2 ~size1:2 s1 ~size2:2 ~d1:256 ~d2:256 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Three-way fusion of barrier-free kernels stays correct. *)
let test_multi_equivalence () =
  let open Gpusim in
  let mem = Memory.create () in
  let specs =
    [ Registry.find_exn "Maxpool"; Registry.find_exn "Upsample";
      Registry.find_exn "Im2Col" ]
  in
  let insts = List.map (fun (s : Spec.t) -> (s, s.instantiate mem ~size:1)) specs in
  let infos =
    List.map
      (fun ((s : Spec.t), inst) ->
        Hfuse_core.Kernel_info.with_block_dim (Spec.kernel_info s inst) 256)
      insts
  in
  let m = Hfuse_core.Multi.generate infos in
  let args = List.concat_map (fun (_, i) -> i.Workload.args) insts in
  ignore
    (Launch.launch_info mem
       (Hfuse_core.Kernel_info.normalized (Hfuse_core.Hfuse.info m.fused))
       ~args
       ~trace_blocks:0);
  List.iter
    (fun ((s : Spec.t), inst) ->
      match inst.Workload.check mem with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s in 3-way fusion: %s" s.name e)
    insts

let suite =
  List.map hfuse_case Registry.all_pairs
  @ List.map vfuse_case
      (* vertical fusion is legal except when a barrier-bearing kernel
         must run under a thread guard: Ethash pairs are fine (Ethash is
         barrier-free) *)
      Registry.all_pairs
  @ [
      Alcotest.test_case "partition sweep equivalence" `Slow
        test_partition_sweep;
      Alcotest.test_case "order independence" `Slow test_order_independence;
      Alcotest.test_case "3-way fusion equivalence" `Slow
        test_multi_equivalence;
    ]
