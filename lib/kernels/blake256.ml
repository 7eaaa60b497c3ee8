(* Blake256 — the BLAKE-256 compression function iterated over
   nonce-derived messages, as in ccminer's blake256 kernels
   (Decred/Vanilla).  Compute-intensive 32-bit ALU work; 14 rounds of 8
   G functions, fully unrolled with literal sigma indices (the miners
   unroll via macros, we generate the source). *)

open Cuda
open Gpusim

let sigma =
  [|
    [| 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 |];
    [| 14; 10; 4; 8; 9; 15; 13; 6; 1; 12; 0; 2; 11; 7; 5; 3 |];
    [| 11; 8; 12; 0; 5; 2; 15; 13; 10; 14; 3; 6; 7; 1; 9; 4 |];
    [| 7; 9; 3; 1; 13; 12; 11; 14; 2; 6; 5; 10; 4; 0; 15; 8 |];
    [| 9; 0; 5; 7; 2; 4; 10; 15; 14; 1; 11; 12; 6; 8; 3; 13 |];
    [| 2; 12; 6; 10; 0; 11; 8; 3; 4; 13; 7; 5; 15; 14; 1; 9 |];
    [| 12; 5; 1; 15; 14; 13; 4; 10; 0; 7; 6; 3; 9; 2; 8; 11 |];
    [| 13; 11; 7; 14; 12; 1; 3; 9; 5; 0; 15; 4; 8; 6; 2; 10 |];
    [| 6; 15; 14; 9; 11; 3; 0; 8; 12; 2; 13; 7; 1; 4; 10; 5 |];
    [| 10; 2; 8; 4; 7; 6; 1; 5; 15; 11; 9; 14; 3; 12; 13; 0 |];
  |]

let iv =
  [|
    0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl;
    0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l;
  |]

let u256 =
  [|
    0x243f6a88l; 0x85a308d3l; 0x13198a2el; 0x03707344l; 0xa4093822l;
    0x299f31d0l; 0x082efa98l; 0xec4e6c89l; 0x452821e6l; 0x38d01377l;
    0xbe5466cfl; 0x34e90c6cl; 0xc0ac29b7l; 0xc97c50ddl; 0x3f84d5b5l;
    0xb5470917l;
  |]

let rounds = 14
let g_schedule = [| (0,4,8,12); (1,5,9,13); (2,6,10,14); (3,7,11,15);
                    (0,5,10,15); (1,6,11,12); (2,7,8,13); (3,4,9,14) |]

let u32_lit (x : int32) = Printf.sprintf "%luu" x

let source =
  let b = Buffer.create 65536 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "__global__ void blake256(uint32_t* result, uint32_t seed, int iters) {\n";
  add "  int gid = blockIdx.x * blockDim.x + threadIdx.x;\n";
  add "  uint32_t m[16];\n  uint32_t v[16];\n";
  add "  uint32_t acc = 2166136261u;\n";
  add "  for (int it = 0; it < iters; it++) {\n";
  add "    uint32_t x = seed + (uint32_t)gid * 2654435761u + (uint32_t)it;\n";
  add "    for (int i = 0; i < 16; i++) {\n";
  add "      x = x * 1664525u + 1013904223u;\n      m[i] = x;\n    }\n";
  for i = 0 to 7 do
    add "    v[%d] = %s;\n" i (u32_lit iv.(i))
  done;
  for i = 0 to 7 do
    add "    v[%d] = %s;\n" (8 + i) (u32_lit u256.(i))
  done;
  (* counter t = 512 bits folded into v12/v13 as in the real function *)
  add "    v[12] = v[12] ^ 512u;\n    v[13] = v[13] ^ 512u;\n";
  for r = 0 to rounds - 1 do
    let s = sigma.(r mod 10) in
    add "    // round %d\n" r;
    Array.iteri
      (fun gi (a, bb, c, d) ->
        let mx = s.(2 * gi) and my = s.((2 * gi) + 1) in
        add "    v[%d] = v[%d] + v[%d] + (m[%d] ^ %s);\n" a a bb mx
          (u32_lit u256.(my));
        add "    v[%d] = rotr32(v[%d] ^ v[%d], 16);\n" d d a;
        add "    v[%d] = v[%d] + v[%d];\n" c c d;
        add "    v[%d] = rotr32(v[%d] ^ v[%d], 12);\n" bb bb c;
        add "    v[%d] = v[%d] + v[%d] + (m[%d] ^ %s);\n" a a bb my
          (u32_lit u256.(mx));
        add "    v[%d] = rotr32(v[%d] ^ v[%d], 8);\n" d d a;
        add "    v[%d] = v[%d] + v[%d];\n" c c d;
        add "    v[%d] = rotr32(v[%d] ^ v[%d], 7);\n" bb bb c)
      g_schedule
  done;
  add "    for (int i = 0; i < 8; i++) {\n";
  add "      acc = (acc * 16777619u) ^ (v[i] ^ v[i + 8]);\n    }\n";
  add "  }\n";
  add "  result[gid] = acc;\n}\n";
  Buffer.contents b

(* -- host reference -------------------------------------------------- *)

let ( +% ) = Int32.add
let ( ^% ) = Int32.logxor
let ( *% ) = Int32.mul

let rotr32 x n =
  Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

let compress (m : int32 array) : int32 array =
  let v = Array.make 16 0l in
  Array.blit iv 0 v 0 8;
  Array.blit u256 0 v 8 8;
  v.(12) <- v.(12) ^% 512l;
  v.(13) <- v.(13) ^% 512l;
  for r = 0 to rounds - 1 do
    let s = sigma.(r mod 10) in
    Array.iteri
      (fun gi (a, b, c, d) ->
        let mx = s.(2 * gi) and my = s.((2 * gi) + 1) in
        v.(a) <- v.(a) +% v.(b) +% (m.(mx) ^% u256.(my));
        v.(d) <- rotr32 (v.(d) ^% v.(a)) 16;
        v.(c) <- v.(c) +% v.(d);
        v.(b) <- rotr32 (v.(b) ^% v.(c)) 12;
        v.(a) <- v.(a) +% v.(b) +% (m.(my) ^% u256.(mx));
        v.(d) <- rotr32 (v.(d) ^% v.(a)) 8;
        v.(c) <- v.(c) +% v.(d);
        v.(b) <- rotr32 (v.(b) ^% v.(c)) 7)
      g_schedule
  done;
  v

let host_reference ~threads ~seed ~iters : int32 array =
  Array.init threads (fun gid ->
      let acc = ref 0x811c9dc5l in
      for it = 0 to iters - 1 do
        let x =
          ref (seed +% (Int32.of_int gid *% 0x9e3779b1l) +% Int32.of_int it)
        in
        let m =
          Array.init 16 (fun _ ->
              x := (!x *% 1664525l) +% 1013904223l;
              !x)
        in
        let v = compress m in
        for i = 0 to 7 do
          acc := (!acc *% 16777619l) ^% (v.(i) ^% v.(i + 8))
        done
      done;
      !acc)

let block_threads = 256

let instantiate (mem : Memory.t) ~size : Workload.instance =
  let iters = max 1 size in
  let threads = Workload.default_grid * block_threads in
  let result = Memory.alloc mem ~name:"blake256.result" ~elem:Ctype.UInt ~count:threads in
  let seed = 0x5EED0003l in
  {
    Workload.args = [ Value.Ptr result; Value.UInt seed; Workload.iv iters ];
    grid = Workload.default_grid;
    smem_dynamic = 0;
    outputs = [ ("blake256.result", result, threads) ];
    check =
      (fun mem ->
        let expect = host_reference ~threads ~seed ~iters in
        Workload.check_int32s ~what:"blake256.result" ~expect
          (Memory.read_int32s mem result threads));
  }

let spec : Spec.t =
  {
    Spec.name = "Blake256";
    kind = Spec.Crypto;
    source;
    regs = 64;
    native_block = (block_threads, 1, 1);
    tunability = Hfuse_core.Kernel_info.Fixed;
    default_size = 2;
    instantiate;
  }
