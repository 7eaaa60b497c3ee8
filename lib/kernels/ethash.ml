(* Ethash — the memory-hard proof-of-work of Ethereum, modelled on
   ethminer's search kernel.  The defining behaviour is the inner loop's
   data-dependent DAG lookups: every round reads a 32-byte row of a
   multi-megabyte dataset at a pseudo-random index, so the kernel is
   dominated by uncoalesced global-memory latency (96% memory stalls in
   Fig. 8 — the best fusion partner in the paper's evaluation).

   Substitution note (DESIGN.md): the real 4 GB DAG is replaced by a
   synthetic SplitMix64-filled dataset of configurable size; the access
   pattern (FNV-mixed data-dependent row reads) is the same code path.
   The keccak stages are folded into an FNV-based seed expansion — they
   are compute prologue/epilogue an order of magnitude smaller than the
   DAG walk. *)

open Cuda
open Gpusim

let source =
  {|
__device__ uint32_t fnv(uint32_t a, uint32_t b) {
  return (a * 16777619u) ^ b;
}

__global__ void ethash(uint32_t* result, uint32_t* dag,
                       int dag_rows, uint32_t seed, int iters) {
  int gid = blockIdx.x * blockDim.x + threadIdx.x;
  uint32_t mix[8];
  uint32_t acc = 2166136261u;
  for (int it = 0; it < iters; it++) {
    uint32_t nonce = seed + (uint32_t)gid * 2654435761u + (uint32_t)it;
    for (int i = 0; i < 8; i++) {
      mix[i] = fnv(nonce ^ ((uint32_t)i * 2654435761u), 2166136261u + (uint32_t)i);
    }
    for (int round = 0; round < 16; round++) {
      uint32_t p = fnv((uint32_t)round ^ mix[round % 8], mix[(round + 1) % 8])
                   % (uint32_t)dag_rows * 8u;
      for (int i = 0; i < 8; i++) {
        mix[i] = fnv(mix[i], dag[p + (uint32_t)i]);
      }
    }
    for (int i = 0; i < 8; i++) { acc = fnv(acc, mix[i]); }
  }
  result[gid] = acc;
}
|}

(* host mirror of the u32 arithmetic *)
let ( *% ) a b = Int32.mul a b
let ( ^% ) a b = Int32.logxor a b
let ( +% ) a b = Int32.add a b
let fnv a b = (a *% 16777619l) ^% b
let u32_rem a b = Int32.unsigned_rem a b

let dag_rows = 8192 (* 8192 rows x 8 u32 = 256 KiB synthetic DAG *)

let host_reference ~dag ~threads ~seed ~iters : int32 array =
  Array.init threads (fun gid ->
      let acc = ref 0x811c9dc5l in
      for it = 0 to iters - 1 do
        let nonce =
          seed +% (Int32.of_int gid *% 0x9e3779b1l) +% Int32.of_int it
        in
        let mix =
          Array.init 8 (fun i ->
              fnv
                (nonce ^% (Int32.of_int i *% 0x9e3779b1l))
                (0x811c9dc5l +% Int32.of_int i))
        in
        for round = 0 to 15 do
          let p =
            Int32.to_int
              (u32_rem
                 (fnv
                    (Int32.of_int round ^% mix.(round mod 8))
                    mix.((round + 1) mod 8))
                 (Int32.of_int dag_rows))
            * 8
          in
          for i = 0 to 7 do
            mix.(i) <- fnv mix.(i) dag.(p + i)
          done
        done;
        for i = 0 to 7 do
          acc := fnv !acc mix.(i)
        done
      done;
      !acc)

let block_threads = 128

let instantiate (mem : Memory.t) ~size : Workload.instance =
  let iters = max 1 size in
  let dag_data () =
    let rng = Prng.create 0xE7A5 in
    Array.init (dag_rows * 8) (fun _ -> Prng.next_u32 rng)
  in
  let dag =
    Memory.alloc mem ~name:"ethash.dag" ~elem:Ctype.UInt ~count:(dag_rows * 8)
      ~init:(fun d -> Memory.store_int32s d (dag_data ()))
  in
  let threads = Workload.default_grid * block_threads in
  let result = Memory.alloc mem ~name:"ethash.result" ~elem:Ctype.UInt ~count:threads in
  let seed = 0x5EED0001l in
  {
    Workload.args =
      [
        Value.Ptr result; Value.Ptr dag; Workload.iv dag_rows;
        Value.UInt seed; Workload.iv iters;
      ];
    grid = Workload.default_grid;
    smem_dynamic = 0;
    outputs = [ ("ethash.result", result, threads) ];
    check =
      (fun mem ->
        let expect = host_reference ~dag:(dag_data ()) ~threads ~seed ~iters in
        Workload.check_int32s ~what:"ethash.result" ~expect
          (Memory.read_int32s mem result threads));
  }

let spec : Spec.t =
  {
    Spec.name = "Ethash";
    kind = Spec.Crypto;
    source;
    regs = 64;
    native_block = (block_threads, 1, 1);
    tunability = Hfuse_core.Kernel_info.Fixed;
    default_size = 2;
    instantiate;
  }
