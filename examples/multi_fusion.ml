(* Extension demo: fusing more than two kernels (the technique is not
   2-specific — PTX offers 15 partial-barrier ids and the thread space
   partitions into as many intervals as fit in 1024 threads).

   Fuses three deep-learning kernels into one block, validates all three
   outputs against their host references, and compares simulated time
   against the native three-launch sequence.

     dune exec examples/multi_fusion.exe *)

open Gpusim
open Kernel_corpus

let () =
  let arch = Arch.gtx1080ti in
  let mem = Memory.create () in
  let picks = [ ("Maxpool", 256); ("Upsample", 256); ("Hist", 256) ] in
  let parts =
    List.map
      (fun (name, d) ->
        let s = Registry.find_exn name in
        let inst = s.instantiate mem ~size:4 in
        let info = Hfuse_core.Kernel_info.with_block_dim (Spec.kernel_info s inst) d in
        (s, inst, info))
      picks
  in
  let infos = List.map (fun (_, _, i) -> i) parts in
  let m = Hfuse_core.Multi.generate infos in
  Printf.printf "fused %d kernels into %d threads/block; intervals at %s\n"
    (List.length infos)
    (Hfuse_core.Multi.threads_per_block m)
    (String.concat ", " (List.map string_of_int m.offsets));
  Printf.printf "barrier ids in use: %s\n\n"
    (String.concat ", "
       (List.map string_of_int
          (Hfuse_core.Barrier.used_ids m.fused.fn.f_body)));

  (* correctness: one launch must reproduce all three kernels' outputs *)
  let args = List.concat_map (fun (_, i, _) -> i.Workload.args) parts in
  ignore
    (Launch.launch_info mem (Hfuse_core.Hfuse.info m.fused) ~args
       ~trace_blocks:2);
  List.iter
    (fun ((s : Spec.t), inst, _) ->
      match inst.Workload.check mem with
      | Ok () -> Printf.printf "%-9s output matches host reference\n" s.name
      | Error e ->
          Printf.eprintf "%s FAILED: %s\n" s.name e;
          exit 1)
    parts;

  (* timing: three native launches vs the single fused launch *)
  let mem2 = Memory.create () in
  let confs =
    List.map
      (fun (name, _) ->
        let s = Registry.find_exn name in
        Hfuse_profiler.Runner.configure mem2 s ~size:4)
      picks
  in
  let settings = Hfuse_profiler.Settings.resolve () in
  let native =
    Timing.run arch
      (List.mapi
         (fun i c -> Hfuse_profiler.Runner.spec_of ~settings c ~stream:i ())
         confs)
  in
  let finfo = Hfuse_core.Hfuse.info m.fused in
  let r =
    Launch.launch_info ~exec_blocks:1 mem finfo ~args ~trace_blocks:1
  in
  let fused =
    Timing.run arch
      [
        {
          Timing.label = "fused3";
          block_traces = r.block_traces;
          grid = finfo.grid;
          threads_per_block = Hfuse_core.Multi.threads_per_block m;
          regs = m.fused.regs;
          spill = 0;
          smem = Hfuse_profiler.Runner.static_smem finfo + finfo.smem_dynamic;
          stream = 0;
        };
      ]
  in
  Printf.printf "\nnative 3 launches: %.4f ms   fused: %.4f ms (%+.1f%%)\n"
    native.Timing.time_ms fused.Timing.time_ms
    (100.0 *. ((native.Timing.time_ms /. fused.Timing.time_ms) -. 1.0))
