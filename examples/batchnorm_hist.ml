(* The paper's motivating example (Section II-C): fusing PyTorch's
   batch_norm_collect_statistics (Fig. 2) with kernelHistogram1D
   (Fig. 3), searching the thread-space partition exactly as Fig. 6
   does, on both GPU models.

   The paper reports: on the 1080Ti the best fused kernel assigns 896
   threads to batchnorm and 128 to the histogram with a register bound
   of 32, and runs 53.4% faster than native; on the V100 the best
   partition is 768/256 and runs 15.8% faster.

     dune exec examples/batchnorm_hist.exe *)

open Kernel_corpus
open Hfuse_profiler

let () =
  let settings = Settings.resolve () in
  let bn = Registry.find_exn "Batchnorm" and hist = Registry.find_exn "Hist" in
  List.iter
    (fun arch ->
      Printf.printf "=== %s ===\n%!" arch.Gpusim.Arch.name;
      (* representative workload: execution-time ratio close to 1 *)
      let sizes = Experiment.representative_sizes ~settings arch in
      let mem = Gpusim.Memory.create () in
      let c1 = Runner.configure mem bn ~size:(Experiment.size_of sizes bn) in
      let c2 = Runner.configure mem hist ~size:(Experiment.size_of sizes hist) in
      let t1 = (Runner.solo ~settings arch c1).Gpusim.Timing.time_ms in
      let t2 = (Runner.solo ~settings arch c2).Gpusim.Timing.time_ms in
      Printf.printf "solo: batchnorm %.4f ms, hist %.4f ms (ratio %.2f)\n%!"
        t1 t2 (t1 /. t2);
      let native = (Runner.native ~settings arch c1 c2).Gpusim.Timing.time_ms in
      Printf.printf "native (parallel streams): %.4f ms\n%!" native;
      (* the Fig. 6 search, profiling each candidate on the simulator *)
      let sr = Runner.search ~settings arch c1 c2 in
      List.iter
        (fun (cand : Hfuse_core.Search.candidate) ->
          Printf.printf "  candidate %4d/%-4d %-12s %.4f ms (%+.1f%%)\n%!"
            cand.fused.d1 cand.fused.d2
            (match cand.config.reg_bound with
            | None -> "no bound"
            | Some r -> Printf.sprintf "bound %d" r)
            cand.time
            (Experiment.speedup ~native ~fused:cand.time))
        sr.all;
      let best = sr.best in
      Printf.printf
        "best: %d threads for batchnorm, %d for hist, %s -> %+.1f%% vs native\n"
        best.fused.d1 best.fused.d2
        (match best.config.reg_bound with
        | None -> "no register bound"
        | Some r -> Printf.sprintf "register bound %d" r)
        (Experiment.speedup ~native ~fused:best.time);
      (* show the prologue of the generated kernel, as in Fig. 4 *)
      if arch.Gpusim.Arch.name = "1080Ti" then begin
        let src = Hfuse_core.Hfuse.to_source best.fused in
        let lines = String.split_on_char '\n' src in
        Printf.printf "\nfused kernel prologue (first 20 lines):\n";
        List.iteri
          (fun i l -> if i < 20 then Printf.printf "  %s\n" l)
          lines
      end;
      print_newline ())
    Gpusim.Arch.all;
  (* functional check at the paper's 1080Ti partition *)
  match
    Runner.validate_hfuse ~settings (Registry.find_exn "Batchnorm") ~size1:2
      (Registry.find_exn "Hist") ~size2:2 ~d1:896 ~d2:128
  with
  | Ok () -> print_endline "fused 896/128 kernel validated against host references"
  | Error e ->
      Printf.eprintf "validation failed: %s\n" e;
      exit 1
