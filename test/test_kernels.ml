(* Benchmark-corpus tests: every kernel parses, typechecks, and its
   simulated output matches the OCaml host reference, at two workload
   sizes.  Plus registry/pair bookkeeping and generator determinism. *)

open Gpusim
open Kernel_corpus

let validate (s : Spec.t) ~size () =
  let mem = Memory.create () in
  let inst = s.instantiate mem ~size in
  let info = Hfuse_core.Kernel_info.normalized (Spec.kernel_info s inst) in
  (match Launch.launch_info mem info ~args:inst.Workload.args ~trace_blocks:0 with
  | _ -> ()
  | exception e -> Alcotest.failf "%s: launch failed: %s" s.name (Printexc.to_string e));
  match inst.Workload.check mem with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" s.name e

(* every hand-written kernel — the paper nine AND the fleet extensions —
   must match its OCaml host reference at two sizes *)
let corpus_cases =
  List.concat_map
    (fun (s : Spec.t) ->
      [
        Alcotest.test_case (s.name ^ " @size=1") `Quick (validate s ~size:1);
        Alcotest.test_case (s.name ^ " @size=3") `Slow (validate s ~size:3);
      ])
    Registry.extended

let test_registry_inventory () =
  Alcotest.(check int) "9 kernels" 9 (List.length Registry.all);
  Alcotest.(check int) "5 deep-learning" 5 (List.length Registry.deep_learning);
  Alcotest.(check int) "4 crypto" 4 (List.length Registry.crypto);
  Alcotest.(check int) "4 image" 4 (List.length Registry.image);
  Alcotest.(check int) "2 reduction" 2 (List.length Registry.reduction);
  Alcotest.(check int) "15 extended" 15 (List.length Registry.extended);
  Alcotest.(check int) "10 DL pairs" 10 (List.length Registry.dl_pairs);
  Alcotest.(check int) "6 crypto pairs" 6 (List.length Registry.crypto_pairs);
  Alcotest.(check int) "16 total" 16 (List.length Registry.all_pairs)

let test_registry_lookup () =
  Alcotest.(check bool) "case-insensitive" true
    (Registry.find "batchNORM" <> None);
  Alcotest.(check bool) "unknown" true (Registry.find "nope" = None);
  match Registry.find_exn "nope" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_all_typecheck () =
  List.iter
    (fun (s : Spec.t) ->
      let prog, _ = Spec.parse s in
      try Cuda.Typecheck.check_program prog
      with Cuda.Typecheck.Error (msg, _) ->
        Alcotest.failf "%s: %s" s.name msg)
    Registry.extended

let test_tunability_declared () =
  List.iter
    (fun (s : Spec.t) ->
      match (s.kind, s.tunability) with
      | Spec.Deep_learning, Hfuse_core.Kernel_info.Tunable _ -> ()
      | Spec.Crypto, Hfuse_core.Kernel_info.Fixed -> ()
      (* fleet extensions: image kernels retune like DL; block-per-
         segment reductions bake blockDim into the tree and stay fixed *)
      | Spec.Image, Hfuse_core.Kernel_info.Tunable _ -> ()
      | Spec.Reduction, Hfuse_core.Kernel_info.Fixed -> ()
      | Spec.Generated, Hfuse_core.Kernel_info.Fixed -> ()
      | _ ->
          Alcotest.failf "%s: tunability does not match its domain (DL/image \
                          tunable, crypto/reduction/generated fixed)" s.name)
    Registry.extended

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_u64 a) (Prng.next_u64 b)
  done;
  let c = Prng.create 43 in
  Alcotest.(check bool) "different seed differs" true
    (Prng.next_u64 (Prng.create 42) <> Prng.next_u64 c)

let test_prng_bounds () =
  let r = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.next_int r ~bound:17 in
    if x < 0 || x >= 17 then Alcotest.failf "out of range: %d" x;
    let f = Prng.next_float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_workload_determinism () =
  (* instantiating the same workload twice yields identical memory *)
  let snap (s : Spec.t) =
    let mem = Memory.create () in
    ignore (s.instantiate mem ~size:2);
    Memory.snapshot mem
  in
  List.iter
    (fun (s : Spec.t) ->
      Alcotest.(check bool)
        (s.name ^ " deterministic")
        true
        (Memory.equal_snapshot (snap s) (snap s)))
    Registry.extended

let test_crypto_sources_generated () =
  (* the generated crypto sources must parse to exactly one kernel and
     contain the expected round structure *)
  List.iter
    (fun name ->
      let s = Registry.find_exn name in
      let _, fn = Spec.parse s in
      Alcotest.(check string) "kernel name" (String.lowercase_ascii name)
        (String.lowercase_ascii fn.f_name))
    [ "SHA256"; "Blake256"; "Blake2B" ];
  Alcotest.(check bool) "sha256 has 64 rounds" true
    (Test_util.contains (Registry.find_exn "SHA256").source "// round 63");
  Alcotest.(check bool) "blake256 has 14 rounds" true
    (Test_util.contains (Registry.find_exn "Blake256").source "// round 13");
  Alcotest.(check bool) "blake2b has 12 rounds" true
    (Test_util.contains (Registry.find_exn "Blake2B").source "// round 11")

(* The input bytes each workload starts from, pinned: any change to a
   generator's PRNG draw order or to how inputs reach memory fails here,
   whether the buffers are filled at allocation or on first touch. *)
let snapshot_digest snap =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, data) ->
      Buffer.add_string b (Printf.sprintf "%s %d\n" name (Bytes.length data));
      Buffer.add_bytes b data)
    snap;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_inputs () =
  let golden =
    In_channel.with_open_bin (Filename.concat "golden" "inputs.md5")
      In_channel.input_lines
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let actual =
    List.concat_map
      (fun (s : Spec.t) ->
        List.map
          (fun size ->
            let mem = Memory.create () in
            ignore (s.instantiate mem ~size);
            Printf.sprintf "%s %d %s" s.name size
              (snapshot_digest (Memory.snapshot mem)))
          [ 1; 3 ])
      Registry.extended
  in
  Alcotest.(check (list string)) "input digests" golden actual

(* A check must compare against a real reference: on memory that was
   never launched the outputs are still zero, and every kernel's host
   reference differs from zero somewhere. *)
let test_unlaunched_checks_fail () =
  List.iter
    (fun (s : Spec.t) ->
      let mem = Memory.create () in
      let inst = s.instantiate mem ~size:1 in
      match inst.Workload.check mem with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s: check passed on unlaunched memory" s.name)
    Registry.extended

let suite =
  corpus_cases
  @ [
      Alcotest.test_case "registry inventory" `Quick test_registry_inventory;
      Alcotest.test_case "registry lookup" `Quick test_registry_lookup;
      Alcotest.test_case "corpus typechecks" `Quick test_all_typecheck;
      Alcotest.test_case "tunability" `Quick test_tunability_declared;
      Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
      Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
      Alcotest.test_case "workload determinism" `Quick
        test_workload_determinism;
      Alcotest.test_case "generated crypto sources" `Quick
        test_crypto_sources_generated;
      Alcotest.test_case "golden input bytes" `Quick test_golden_inputs;
      Alcotest.test_case "unlaunched checks fail" `Quick
        test_unlaunched_checks_fail;
    ]
