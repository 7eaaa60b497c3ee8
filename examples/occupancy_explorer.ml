(* Occupancy explorer: the thread-level vs block-level parallelism
   trade-off of Section IV-C, made tangible.

   For a chosen pair this walks every thread-space partition, showing
   for each: the fused kernel's theoretical occupancy, the Fig. 6
   register bound r0, and what the bound buys (or costs) in simulated
   time.

     dune exec examples/occupancy_explorer.exe           # Batchnorm+Hist
     dune exec examples/occupancy_explorer.exe Hist Upsample *)

open Kernel_corpus
open Hfuse_profiler

let () =
  let name1, name2 =
    match Sys.argv with
    | [| _; a; b |] -> (a, b)
    | _ -> ("Batchnorm", "Hist")
  in
  let settings = Settings.resolve () in
  let s1 = Registry.find_exn name1 and s2 = Registry.find_exn name2 in
  let arch = Gpusim.Arch.gtx1080ti in
  let lim = Gpusim.Arch.sm_limits arch in
  let sizes = Experiment.representative_sizes ~settings arch in
  let mem = Gpusim.Memory.create () in
  let c1 = Runner.configure mem s1 ~size:(Experiment.size_of sizes s1) in
  let c2 = Runner.configure mem s2 ~size:(Experiment.size_of sizes s2) in
  let native = (Runner.native ~settings arch c1 c2).Gpusim.Timing.time_ms in
  Printf.printf "%s + %s on %s (native: %.4f ms)\n\n" name1 name2
    arch.Gpusim.Arch.name native;
  Printf.printf "%-10s %7s %6s %6s | %12s | %12s %8s\n" "partition" "regs"
    "blk/SM" "occ%" "t none (ms)" "t r0 (ms)" "r0";
  let d0 = Runner.d0_for c1 c2 in
  List.iter
    (fun { Hfuse_core.Partition.d1; d2 } ->
      let k1 = Hfuse_core.Kernel_info.with_block_dim c1.info d1 in
      let k2 = Hfuse_core.Kernel_info.with_block_dim c2.info d2 in
      let fused = Hfuse_core.Hfuse.generate k1 k2 in
      let smem =
        Hfuse_core.Kernel_info.smem_total (Hfuse_core.Hfuse.info fused)
      in
      let blocks =
        Hfuse_core.Occupancy.blocks_per_sm lim ~regs:fused.regs
          ~threads:(d1 + d2) ~smem
      in
      let occ =
        100.0
        *. Hfuse_core.Occupancy.theoretical_occupancy lim ~regs:fused.regs
             ~threads:(d1 + d2) ~smem
      in
      let t_none =
        (Runner.hfuse_report ~settings arch c1 c2 fused ~reg_bound:None)
          .Gpusim.Timing.time_ms
      in
      let r0 =
        Hfuse_core.Occupancy.register_bound lim ~d1 ~regs1:c1.spec.regs ~d2
          ~regs2:c2.spec.regs ~fused_smem:smem
      in
      let t_r0 =
        Option.map
          (fun r ->
            (Runner.hfuse_report ~settings arch c1 c2 fused ~reg_bound:(Some r))
              .Gpusim.Timing.time_ms)
          r0
      in
      Printf.printf "%4d/%-5d %7d %6d %6.1f | %12.4f | %12s %8s\n" d1 d2
        fused.regs blocks occ t_none
        (match t_r0 with Some t -> Printf.sprintf "%.4f" t | None -> "-")
        (match r0 with Some r -> string_of_int r | None -> "-"))
    (Hfuse_core.Partition.enumerate c1.info c2.info ~d0);
  print_newline ();
  Printf.printf
    "Occupancy falls as one kernel's share grows past the register\n\
     breakpoint; the Fig. 6 bound r0 restores resident blocks at the\n\
     price of spilling.  Whether that trade pays is exactly what the\n\
     profiling search decides.\n"
