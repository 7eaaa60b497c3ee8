(* Blake2B — the BLAKE2b compression function iterated over
   nonce-derived messages, as in ccminer's sia/blake2b kernels.
   Compute-intensive 64-bit ALU work (each 64-bit op costs two 32-bit
   register lanes on the device): 12 rounds of 8 G functions, unrolled
   with literal sigma indices. *)

open Cuda
open Gpusim

let sigma = Blake256.sigma (* BLAKE2b uses the same 10 sigma rows *)

let iv =
  [|
    0x6a09e667f3bcc908L; 0xbb67ae8584caa73bL; 0x3c6ef372fe94f82bL;
    0xa54ff53a5f1d36f1L; 0x510e527fade682d1L; 0x9b05688c2b3e6c1fL;
    0x1f83d9abfb41bd6bL; 0x5be0cd19137e2179L;
  |]

let rounds = 12
let g_schedule = Blake256.g_schedule

let u64_lit (x : int64) = Printf.sprintf "%Luull" x

let source =
  let b = Buffer.create 65536 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "__global__ void blake2b(uint64_t* result, uint64_t seed, int iters) {\n";
  add "  int gid = blockIdx.x * blockDim.x + threadIdx.x;\n";
  add "  uint64_t m[16];\n  uint64_t v[16];\n";
  add "  uint64_t acc = 14695981039346656037ull;\n";
  add "  for (int it = 0; it < iters; it++) {\n";
  add
    "    uint64_t x = seed + (uint64_t)gid * 11400714819323198485ull + \
     (uint64_t)it;\n";
  add "    for (int i = 0; i < 16; i++) {\n";
  add
    "      x = x * 6364136223846793005ull + 1442695040888963407ull;\n\
    \      m[i] = x;\n    }\n";
  for i = 0 to 7 do
    add "    v[%d] = %s;\n" i (u64_lit iv.(i))
  done;
  for i = 0 to 7 do
    add "    v[%d] = %s;\n" (8 + i) (u64_lit iv.(i))
  done;
  (* t = 128 input bytes; final-block flag inverts v[14] *)
  add "    v[12] = v[12] ^ 128ull;\n";
  add "    v[14] = ~v[14];\n";
  for r = 0 to rounds - 1 do
    let s = sigma.(r mod 10) in
    add "    // round %d\n" r;
    Array.iteri
      (fun gi (a, bb, c, d) ->
        let mx = s.(2 * gi) and my = s.((2 * gi) + 1) in
        add "    v[%d] = v[%d] + v[%d] + m[%d];\n" a a bb mx;
        add "    v[%d] = rotr64(v[%d] ^ v[%d], 32);\n" d d a;
        add "    v[%d] = v[%d] + v[%d];\n" c c d;
        add "    v[%d] = rotr64(v[%d] ^ v[%d], 24);\n" bb bb c;
        add "    v[%d] = v[%d] + v[%d] + m[%d];\n" a a bb my;
        add "    v[%d] = rotr64(v[%d] ^ v[%d], 16);\n" d d a;
        add "    v[%d] = v[%d] + v[%d];\n" c c d;
        add "    v[%d] = rotr64(v[%d] ^ v[%d], 63);\n" bb bb c)
      g_schedule
  done;
  add "    for (int i = 0; i < 8; i++) {\n";
  add
    "      acc = (acc * 1099511628211ull) ^ (%s ^ v[i] ^ v[i + 8]);\n    }\n"
    "1442695040888963407ull";
  add "  }\n";
  add "  result[gid] = acc;\n}\n";
  Buffer.contents b

(* -- host reference -------------------------------------------------- *)

let ( +% ) = Int64.add
let ( ^% ) = Int64.logxor
let ( *% ) = Int64.mul

let rotr64 x n =
  Int64.logor (Int64.shift_right_logical x n) (Int64.shift_left x (64 - n))

let compress (m : int64 array) : int64 array =
  let v = Array.make 16 0L in
  Array.blit iv 0 v 0 8;
  Array.blit iv 0 v 8 8;
  v.(12) <- v.(12) ^% 128L;
  v.(14) <- Int64.lognot v.(14);
  for r = 0 to rounds - 1 do
    let s = sigma.(r mod 10) in
    Array.iteri
      (fun gi (a, b, c, d) ->
        let mx = s.(2 * gi) and my = s.((2 * gi) + 1) in
        v.(a) <- v.(a) +% v.(b) +% m.(mx);
        v.(d) <- rotr64 (v.(d) ^% v.(a)) 32;
        v.(c) <- v.(c) +% v.(d);
        v.(b) <- rotr64 (v.(b) ^% v.(c)) 24;
        v.(a) <- v.(a) +% v.(b) +% m.(my);
        v.(d) <- rotr64 (v.(d) ^% v.(a)) 16;
        v.(c) <- v.(c) +% v.(d);
        v.(b) <- rotr64 (v.(b) ^% v.(c)) 63)
      g_schedule
  done;
  v

let host_reference ~threads ~seed ~iters : int64 array =
  Array.init threads (fun gid ->
      let acc = ref 0xCBF29CE484222325L in
      for it = 0 to iters - 1 do
        let x =
          ref
            (seed
            +% (Int64.of_int gid *% 0x9E3779B97F4A7C15L)
            +% Int64.of_int it)
        in
        let m =
          Array.init 16 (fun _ ->
              x := (!x *% 6364136223846793005L) +% 1442695040888963407L;
              !x)
        in
        let v = compress m in
        for i = 0 to 7 do
          acc :=
            (!acc *% 1099511628211L)
            ^% (1442695040888963407L ^% v.(i) ^% v.(i + 8))
        done
      done;
      !acc)

let block_threads = 256

let instantiate (mem : Memory.t) ~size : Workload.instance =
  let iters = max 1 size in
  let threads = Workload.default_grid * block_threads in
  let result = Memory.alloc mem ~name:"blake2b.result" ~elem:Ctype.ULong ~count:threads in
  let seed = 0x5EED000000000004L in
  {
    Workload.args =
      [ Value.Ptr result; Value.ULong seed; Workload.iv iters ];
    grid = Workload.default_grid;
    smem_dynamic = 0;
    outputs = [ ("blake2b.result", result, threads) ];
    check =
      (fun mem ->
        let expect = host_reference ~threads ~seed ~iters in
        Workload.check_int64s ~what:"blake2b.result" ~expect
          (Memory.read_int64s mem result threads));
  }

let spec : Spec.t =
  {
    Spec.name = "Blake2B";
    kind = Spec.Crypto;
    source;
    regs = 64;
    native_block = (block_threads, 1, 1);
    tunability = Hfuse_core.Kernel_info.Fixed;
    default_size = 2;
    instantiate;
  }
