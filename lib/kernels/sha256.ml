(* SHA256 — the SHA-256 compression function iterated over
   nonce-derived messages, modelled on ccminer's sha256d search kernel.
   Compute-intensive: long dependent chains of 32-bit ALU work (rotates,
   xors, adds), essentially no memory traffic (Fig. 8: 0% memory
   stalls).

   As in the miners, the 64 rounds are fully unrolled — here the
   unrolled source is *generated* (the miners use macros), with the
   message schedule kept in a rolling 16-word window. *)

open Cuda
open Gpusim

let k_constants =
  [|
    0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
    0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
    0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
    0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
    0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
    0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
    0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
    0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
    0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
    0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
    0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
    0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
    0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l;
  |]

let h_init =
  [|
    0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl;
    0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l;
  |]

let u32_lit (x : int32) =
  Printf.sprintf "%luu" x

(* -- generated source ---------------------------------------------- *)

let source =
  let b = Buffer.create 32768 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add
    "__global__ void sha256(uint32_t* result, uint32_t seed, int iters) {\n";
  add "  int gid = blockIdx.x * blockDim.x + threadIdx.x;\n";
  add "  uint32_t w[16];\n";
  add "  uint32_t acc = 2166136261u;\n";
  add "  for (int it = 0; it < iters; it++) {\n";
  add
    "    uint32_t x = seed + (uint32_t)gid * 2654435761u + (uint32_t)it;\n";
  add "    for (int i = 0; i < 16; i++) {\n";
  add "      x = x * 1664525u + 1013904223u;\n";
  add "      w[i] = x;\n";
  add "    }\n";
  Array.iteri
    (fun i h -> add "    uint32_t %c = %s;\n" (Char.chr (Char.code 'a' + i))
        (u32_lit h))
    h_init;
  add "    uint32_t t1;\n    uint32_t t2;\n";
  for i = 0 to 63 do
    add "    // round %d\n" i;
    if i >= 16 then begin
      (* rolling message schedule *)
      let w j = Printf.sprintf "w[%d]" (j land 15) in
      add
        "    %s = %s + (rotr32(%s, 7) ^ rotr32(%s, 18) ^ (%s >> 3)) + %s + \
         (rotr32(%s, 17) ^ rotr32(%s, 19) ^ (%s >> 10));\n"
        (w i) (w i)
        (w (i + 1)) (w (i + 1)) (w (i + 1))
        (w (i + 9))
        (w (i + 14)) (w (i + 14)) (w (i + 14))
    end;
    add
      "    t1 = h + (rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25)) + ((e & \
       f) ^ (~e & g)) + %s + w[%d];\n"
      (u32_lit k_constants.(i))
      (i land 15);
    add
      "    t2 = (rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22)) + ((a & b) ^ \
       (a & c) ^ (b & c));\n";
    add "    h = g; g = f; f = e; e = d + t1; d = c; c = b; b = a; a = t1 + t2;\n"
  done;
  add "    acc = (acc * 16777619u) ^ (a + %s) ^ (e + %s);\n"
    (u32_lit h_init.(0)) (u32_lit h_init.(4));
  add "  }\n";
  add "  result[gid] = acc;\n";
  add "}\n";
  Buffer.contents b

(* -- host reference -------------------------------------------------- *)

let ( +% ) = Int32.add
let ( ^% ) = Int32.logxor
let ( &% ) = Int32.logand
let ( *% ) = Int32.mul

let rotr32 x n =
  Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

let shr x n = Int32.shift_right_logical x n

let compress (w0 : int32 array) : int32 * int32 =
  let w = Array.copy w0 in
  let a = ref h_init.(0) and bb = ref h_init.(1) and c = ref h_init.(2) in
  let d = ref h_init.(3) and e = ref h_init.(4) and f = ref h_init.(5) in
  let g = ref h_init.(6) and h = ref h_init.(7) in
  for i = 0 to 63 do
    if i >= 16 then begin
      let s0 =
        rotr32 w.((i + 1) land 15) 7
        ^% rotr32 w.((i + 1) land 15) 18
        ^% shr w.((i + 1) land 15) 3
      in
      let s1 =
        rotr32 w.((i + 14) land 15) 17
        ^% rotr32 w.((i + 14) land 15) 19
        ^% shr w.((i + 14) land 15) 10
      in
      w.(i land 15) <- w.(i land 15) +% s0 +% w.((i + 9) land 15) +% s1
    end;
    let s1e = rotr32 !e 6 ^% rotr32 !e 11 ^% rotr32 !e 25 in
    let ch = (!e &% !f) ^% (Int32.lognot !e &% !g) in
    let t1 = !h +% s1e +% ch +% k_constants.(i) +% w.(i land 15) in
    let s0a = rotr32 !a 2 ^% rotr32 !a 13 ^% rotr32 !a 22 in
    let maj = (!a &% !bb) ^% (!a &% !c) ^% (!bb &% !c) in
    let t2 = s0a +% maj in
    h := !g;
    g := !f;
    f := !e;
    e := !d +% t1;
    d := !c;
    c := !bb;
    bb := !a;
    a := t1 +% t2
  done;
  (!a, !e)

let host_reference ~threads ~seed ~iters : int32 array =
  Array.init threads (fun gid ->
      let acc = ref 0x811c9dc5l in
      for it = 0 to iters - 1 do
        let x =
          ref (seed +% (Int32.of_int gid *% 0x9e3779b1l) +% Int32.of_int it)
        in
        let w =
          Array.init 16 (fun _ ->
              x := (!x *% 1664525l) +% 1013904223l;
              !x)
        in
        let a, e = compress w in
        acc := (!acc *% 16777619l) ^% (a +% h_init.(0)) ^% (e +% h_init.(4))
      done;
      !acc)

let block_threads = 256

let instantiate (mem : Memory.t) ~size : Workload.instance =
  let iters = max 1 size in
  let threads = Workload.default_grid * block_threads in
  let result = Memory.alloc mem ~name:"sha256.result" ~elem:Ctype.UInt ~count:threads in
  let seed = 0x5EED0002l in
  {
    Workload.args = [ Value.Ptr result; Value.UInt seed; Workload.iv iters ];
    grid = Workload.default_grid;
    smem_dynamic = 0;
    outputs = [ ("sha256.result", result, threads) ];
    check =
      (fun mem ->
        let expect = host_reference ~threads ~seed ~iters in
        Workload.check_int32s ~what:"sha256.result" ~expect
          (Memory.read_int32s mem result threads));
  }

let spec : Spec.t =
  {
    Spec.name = "SHA256";
    kind = Spec.Crypto;
    source;
    regs = 72;
    native_block = (block_threads, 1, 1);
    tunability = Hfuse_core.Kernel_info.Fixed;
    default_size = 2;
    instantiate;
  }
