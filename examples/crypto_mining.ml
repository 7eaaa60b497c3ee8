(* Crypto-mining scenario (paper Section IV-B): a rig that mines two
   coins at once.  Fusing the memory-hard Ethash with a compute-hard
   miner (Blake256 / SHA256 / Blake2B) lets the warp scheduler hide
   Ethash's DAG-lookup latency behind hash arithmetic — the paper's
   strongest use case.  Fusing two compute-hard miners, by contrast,
   brings nothing and costs occupancy.

     dune exec examples/crypto_mining.exe *)

open Kernel_corpus
open Hfuse_profiler

let () =
  let settings = Settings.resolve () in
  let arch = Gpusim.Arch.gtx1080ti in
  Printf.printf "dual-mining on the simulated %s\n\n%!" arch.Gpusim.Arch.name;
  Printf.printf "%-22s %10s %10s %9s %10s\n" "pair" "native ms" "fused ms"
    "speedup" "hashes/ms";
  List.iter
    (fun (n1, n2) ->
      let s1 = Registry.find_exn n1 and s2 = Registry.find_exn n2 in
      let mem = Gpusim.Memory.create () in
      (* equal iteration counts: the miner hashes until the DAG walk is
         done anyway *)
      let c1 = Runner.configure mem s1 ~size:2 in
      let c2 = Runner.configure mem s2 ~size:2 in
      let native = (Runner.native ~settings arch c1 c2).Gpusim.Timing.time_ms in
      let sr = Runner.search ~settings arch c1 c2 in
      let best = sr.Hfuse_core.Search.best in
      let fused_ms = best.Hfuse_core.Search.time in
      (* total hashes of both kernels per millisecond of fused execution *)
      let hashes =
        float_of_int (2 * Workload.default_grid * 2 * (128 + 256))
      in
      Printf.printf "%-22s %10.4f %10.4f %+8.1f%% %10.0f\n%!"
        (n1 ^ "+" ^ n2) native fused_ms
        (Experiment.speedup ~native ~fused:fused_ms)
        (hashes /. fused_ms))
    [
      ("Ethash", "Blake256"); ("Ethash", "SHA256"); ("Ethash", "Blake2B");
      ("Blake256", "Blake2B"); ("Blake256", "SHA256"); ("Blake2B", "SHA256");
    ];
  print_newline ();
  print_endline
    "Ethash pairs win: Ethash stalls on uncoalesced DAG reads while the\n\
     compute miner keeps the issue slots busy.  Compute+compute pairs\n\
     lose: they contend for the same pipelines and halve occupancy —\n\
     matching the paper's Fig. 7 crypto rows.";
  (* correctness spot check *)
  match
    Runner.validate_hfuse ~settings (Registry.find_exn "Ethash") ~size1:1
      (Registry.find_exn "Blake256") ~size2:1 ~d1:128 ~d2:256
  with
  | Ok () -> print_endline "fused Ethash+Blake256 validated against host references"
  | Error e ->
      Printf.eprintf "validation failed: %s\n" e;
      exit 1
