(* SIMT interpreter tests: control flow under divergence, shared memory
   and barriers, shuffles, atomics, goto discipline, local arrays,
   deadlock detection, and trace recording (coalescing, bank conflicts). *)

open Cuda
open Gpusim

let launch ?(grid = 1) ?(block = (32, 1, 1)) ?(smem_dynamic = 0)
    ?(trace_blocks = 0) src args =
  let mem = Memory.create () in
  let prog, fn = Test_util.kernel_of_source src in
  let r =
    Launch.launch mem ~prog ~fn ~args:(args mem)
      {
        grid;
        block;
        smem_dynamic;
        trace_blocks;
        l1_sectors = 512;
        exec_blocks = None;
      }
  in
  (mem, r)

let out_i32 mem n =
  Memory.read_int32s mem
    { Value.space = Value.Global; buf = 0; off = 0; elem = Ctype.Int }
    n

(* first allocation is the output unless stated otherwise *)
let alloc_out ?(count = 64) mem =
  Memory.alloc mem ~name:"out" ~elem:Ctype.Int ~count

let test_thread_ids () =
  let mem, _ =
    launch ~block:(8, 4, 1)
      {|
__global__ void k(int* out) {
  int lin = threadIdx.x + threadIdx.y * blockDim.x;
  out[lin] = threadIdx.y * 100 + threadIdx.x;
}
|}
      (fun mem -> [ Value.Ptr (alloc_out mem) ])
  in
  let got = out_i32 mem 32 in
  Alcotest.(check int32) "lin 0" 0l got.(0);
  Alcotest.(check int32) "lin 9 = y1 x1" 101l got.(9);
  Alcotest.(check int32) "lin 31 = y3 x7" 307l got.(31)

let test_divergent_if () =
  let mem, _ =
    launch
      {|
__global__ void k(int* out) {
  int t = threadIdx.x;
  if (t % 2 == 0) { out[t] = 10 + t; } else { out[t] = 20 + t; }
}
|}
      (fun mem -> [ Value.Ptr (alloc_out mem) ])
  in
  let got = out_i32 mem 32 in
  Alcotest.(check int32) "even lane" 10l got.(0);
  Alcotest.(check int32) "odd lane" 21l got.(1)

let test_divergent_loop_break_continue () =
  let mem, _ =
    launch
      {|
__global__ void k(int* out) {
  int t = threadIdx.x;
  int acc = 0;
  for (int i = 0; i < 10; i++) {
    if (i == t) { break; }      // lane t exits after t iterations
    if (i % 2 == 1) { continue; }
    acc = acc + 1;              // counts even i below t
  }
  out[t] = acc;
}
|}
      (fun mem -> [ Value.Ptr (alloc_out mem) ])
  in
  let got = out_i32 mem 32 in
  (* lane t counts even i in [0, min t 10) *)
  Array.iteri
    (fun t v ->
      let expect = (min t 10 + 1) / 2 in
      Alcotest.(check int32)
        (Printf.sprintf "lane %d" t)
        (Int32.of_int expect) v)
    got

let test_early_return () =
  let mem, _ =
    launch
      {|
__global__ void k(int* out) {
  int t = threadIdx.x;
  out[t] = 1;
  if (t < 16) { return; }
  out[t] = 2;
}
|}
      (fun mem -> [ Value.Ptr (alloc_out mem) ])
  in
  let got = out_i32 mem 32 in
  Alcotest.(check int32) "returned lane" 1l got.(3);
  Alcotest.(check int32) "surviving lane" 2l got.(20)

let test_while_and_do_while () =
  let mem, _ =
    launch
      {|
__global__ void k(int* out) {
  int t = threadIdx.x;
  int x = t;
  while (x > 4) { x = x - 3; }
  int y = 0;
  int n = t;
  do { y++; n = n / 2; } while (n > 0);
  out[t] = x * 100 + y;
}
|}
      (fun mem -> [ Value.Ptr (alloc_out mem) ])
  in
  let got = out_i32 mem 32 in
  let host t =
    let x = ref t in
    while !x > 4 do x := !x - 3 done;
    let y = ref 0 and n = ref t in
    let continue_ = ref true in
    while !continue_ do
      incr y;
      n := !n / 2;
      continue_ := !n > 0
    done;
    Int32.of_int ((!x * 100) + !y)
  in
  Array.iteri
    (fun t v -> Alcotest.(check int32) (Printf.sprintf "lane %d" t) (host t) v)
    got

let test_shared_memory_barrier () =
  (* reverse a block's values through shared memory: requires a working
     block-wide barrier across the two warps *)
  let mem, _ =
    launch ~block:(64, 1, 1)
      {|
__global__ void k(int* out) {
  __shared__ int buf[64];
  int t = threadIdx.x;
  buf[t] = t;
  __syncthreads();
  out[t] = buf[63 - t];
}
|}
      (fun mem -> [ Value.Ptr (alloc_out mem) ])
  in
  let got = out_i32 mem 64 in
  Alcotest.(check int32) "reversed 0" 63l got.(0);
  Alcotest.(check int32) "reversed 63" 0l got.(63)

let test_partial_barrier () =
  (* bar.sync 1, 64 synchronises the first 64 threads only; the other
     warp never participates and must not deadlock *)
  let mem, _ =
    launch ~block:(96, 1, 1)
      {|
__global__ void k(int* out) {
  __shared__ int buf[64];
  int t = threadIdx.x;
  if (t >= 64) goto other;
  buf[t] = t * 2;
  asm("bar.sync 1, 64;");
  out[t] = buf[63 - t];
  other:;
  if (t >= 64) { out[t] = -1; }
}
|}
      (fun mem -> [ Value.Ptr (alloc_out ~count:96 mem) ])
  in
  let got = out_i32 mem 96 in
  Alcotest.(check int32) "synced half" 126l got.(0);
  Alcotest.(check int32) "other half" (-1l) got.(70)

let test_deadlock_detection () =
  match
    launch ~block:(64, 1, 1)
      {|
__global__ void k(int* out) {
  if (threadIdx.x < 32) { __syncthreads(); }
  out[0] = 1;
}
|}
      (fun mem -> [ Value.Ptr (alloc_out mem) ])
  with
  | exception Launch.Deadlock msg ->
      Alcotest.(check bool) "names the barrier" true
        (Test_util.contains msg "barrier")
  | exception Interp.Exec_error msg ->
      (* a divergent __syncthreads inside one warp is also illegal *)
      Alcotest.(check bool) "divergent barrier" true
        (Test_util.contains msg "divergent")
  | _ -> Alcotest.fail "expected deadlock"

let test_divergent_goto_rejected () =
  match
    launch
      {|
__global__ void k(int* out) {
  if (threadIdx.x < 16) goto skip;
  out[threadIdx.x] = 1;
  skip:;
}
|}
      (fun mem -> [ Value.Ptr (alloc_out mem) ])
  with
  | exception Interp.Exec_error msg ->
      Alcotest.(check bool) "mentions goto" true
        (Test_util.contains msg "goto")
  | _ -> Alcotest.fail "expected divergent-goto error"

let test_shuffle_xor () =
  let mem, _ =
    launch
      {|
__global__ void k(int* out) {
  int t = threadIdx.x;
  int v = t * 10;
  int o = WARP_SHFL_XOR(v, 1, 32);
  out[t] = o;
}
|}
      (fun mem -> [ Value.Ptr (alloc_out mem) ])
  in
  let got = out_i32 mem 32 in
  Alcotest.(check int32) "lane 0 gets lane 1" 10l got.(0);
  Alcotest.(check int32) "lane 5 gets lane 4" 40l got.(5)

let test_warp_reduction () =
  (* full butterfly reduction: every lane ends with the warp sum *)
  let mem, _ =
    launch
      {|
__global__ void k(int* out) {
  int v = threadIdx.x + 1;
  for (int i = 0; i < 5; i++) {
    v = v + WARP_SHFL_XOR(v, 1 << i, 32);
  }
  out[threadIdx.x] = v;
}
|}
      (fun mem -> [ Value.Ptr (alloc_out mem) ])
  in
  let got = out_i32 mem 32 in
  Array.iter (fun v -> Alcotest.(check int32) "sum 1..32" 528l v) got

let test_atomics () =
  let mem, _ =
    launch ~grid:2 ~block:(64, 1, 1)
      {|
__global__ void k(int* out) {
  atomicAdd(&out[0], 1);
  atomicMax(&out[1], threadIdx.x);
  atomicMin(&out[2], -(int)threadIdx.x);
}
|}
      (fun mem -> [ Value.Ptr (alloc_out mem) ])
  in
  let got = out_i32 mem 3 in
  Alcotest.(check int32) "atomicAdd counts threads" 128l got.(0);
  Alcotest.(check int32) "atomicMax" 63l got.(1);
  Alcotest.(check int32) "atomicMin" (-63l) got.(2)

let test_shared_atomics () =
  let mem, _ =
    launch ~block:(128, 1, 1)
      {|
__global__ void k(int* out) {
  __shared__ int c[4];
  if (threadIdx.x < 4) { c[threadIdx.x] = 0; }
  __syncthreads();
  atomicAdd(&c[threadIdx.x % 4], 1);
  __syncthreads();
  if (threadIdx.x < 4) { out[threadIdx.x] = c[threadIdx.x]; }
}
|}
      (fun mem -> [ Value.Ptr (alloc_out mem) ])
  in
  let got = out_i32 mem 4 in
  Array.iter (fun v -> Alcotest.(check int32) "32 per bin" 32l v) got

let test_local_arrays () =
  let mem, _ =
    launch
      {|
__global__ void k(int* out) {
  int m[8];
  for (int i = 0; i < 8; i++) { m[i] = threadIdx.x * 8 + i; }
  int acc = 0;
  for (int i = 0; i < 8; i++) { acc += m[i]; }
  out[threadIdx.x] = acc;
}
|}
      (fun mem -> [ Value.Ptr (alloc_out mem) ])
  in
  let got = out_i32 mem 32 in
  Array.iteri
    (fun t v ->
      let expect = (8 * 8 * t) + 28 in
      Alcotest.(check int32) "per-lane array" (Int32.of_int expect) v)
    got

let test_grid_stride_and_blockidx () =
  let mem, _ =
    launch ~grid:4 ~block:(32, 1, 1)
      {|
__global__ void k(int* out, int n) {
  for (int i = blockIdx.x * blockDim.x + threadIdx.x; i < n;
       i += blockDim.x * gridDim.x) {
    out[i] = i * 3;
  }
}
|}
      (fun mem -> [ Value.Ptr (alloc_out ~count:300 mem); Kernel_corpus.Workload.iv 300 ])
  in
  let got = out_i32 mem 300 in
  Alcotest.(check int32) "first" 0l got.(0);
  Alcotest.(check int32) "middle" (Int32.of_int (157 * 3)) got.(157);
  Alcotest.(check int32) "last" (Int32.of_int (299 * 3)) got.(299)

let test_extern_shared_reinterpret () =
  let mem, _ =
    launch ~smem_dynamic:128
      {|
__global__ void k(int* out) {
  extern __shared__ unsigned char raw[];
  float* f = (float*)raw;
  int* i = (int*)raw;
  if (threadIdx.x == 0) { f[0] = 1.0f; }
  __syncthreads();
  out[threadIdx.x] = i[0];
}
|}
      (fun mem -> [ Value.Ptr (alloc_out mem) ])
  in
  let got = out_i32 mem 32 in
  Alcotest.(check int32) "bit pattern of 1.0f" 0x3F800000l got.(0)

(* -- trace recording ---------------------------------------------------- *)

let count_instr pred (tr : Trace.block array) =
  Array.fold_left
    (fun acc block ->
      Array.fold_left
        (fun acc t -> Trace.fold (fun a i -> if pred i then a + 1 else a) acc t)
        acc block)
    0 tr

let test_coalescing () =
  (* coalesced loads: 32 consecutive floats = 4 sectors; strided by 32
     floats = 32 distinct sectors *)
  let _, r =
    launch ~trace_blocks:1
      {|
__global__ void k(int* out, float* a) {
  float x = a[threadIdx.x];           // coalesced
  float y = a[threadIdx.x * 32];      // strided
  out[threadIdx.x] = (int)(x + y);
}
|}
      (fun mem ->
        let out = alloc_out mem in
        let a = Memory.alloc mem ~name:"a" ~elem:Ctype.Float ~count:1024 in
        [ Value.Ptr out; Value.Ptr a ])
  in
  let tr = r.Launch.block_traces in
  let loads =
    Array.fold_left
      (fun acc t ->
        Trace.fold
          (fun a i ->
            match i with Instr.Ld_global (m, h) -> (m + h) :: a | _ -> a)
          acc t)
      [] tr.(0)
  in
  Alcotest.(check (list int)) "txns per load (reverse order)" [ 32; 4 ]
    loads

let test_bank_conflicts () =
  let _, r =
    launch ~trace_blocks:1
      {|
__global__ void k(int* out) {
  __shared__ int buf[1024];
  buf[threadIdx.x] = 1;              // conflict-free
  buf[threadIdx.x * 32] = 2;         // 32-way conflict
  buf[0] = 3;                        // broadcast (same word)
  out[threadIdx.x] = buf[threadIdx.x];
}
|}
      (fun mem -> [ Value.Ptr (alloc_out mem) ])
  in
  let stores =
    Array.fold_left
      (fun acc t ->
        Trace.fold
          (fun a i -> match i with Instr.St_shared n -> n :: a | _ -> a)
          acc t)
      [] r.Launch.block_traces.(0)
  in
  Alcotest.(check (list int)) "conflict ways (reverse order)" [ 1; 32; 1 ]
    stores

let test_barrier_in_trace () =
  let _, r =
    launch ~trace_blocks:1 ~block:(64, 1, 1)
      {|
__global__ void k(int* out) {
  __syncthreads();
  out[threadIdx.x] = 0;
}
|}
      (fun mem -> [ Value.Ptr (alloc_out mem) ])
  in
  Alcotest.(check int) "one Bar per warp" 2
    (count_instr
       (function Instr.Bar (0, 64) -> true | _ -> false)
       r.Launch.block_traces)

let test_determinism () =
  let run () =
    let mem, _ =
      launch ~grid:2 ~block:(64, 1, 1)
        {|
__global__ void k(int* out) {
  atomicAdd(&out[threadIdx.x % 8], threadIdx.x + blockIdx.x);
}
|}
        (fun mem -> [ Value.Ptr (alloc_out mem) ])
    in
    out_i32 mem 8
  in
  Alcotest.(check (array int32)) "bitwise deterministic" (run ()) (run ())

let test_loop_fuel () =
  match
    launch
      {|
__global__ void k(int* out) {
  while (true) { out[0] = out[0] + 1; }
}
|}
      (fun mem -> [ Value.Ptr (alloc_out mem) ])
  with
  | exception Launch.Sim_timeout { kernel; fuel; block } ->
      Alcotest.(check string) "kernel name" "k" kernel;
      Alcotest.(check bool) "positive fuel" true (fuel > 0);
      Alcotest.(check int) "block 0" 0 block
  | _ -> Alcotest.fail "expected loop-fuel exhaustion"

(* A register post-increment or post-decrement yields the old value,
   and the variable still steps. *)
let test_post_incdec () =
  let mem, _ =
    launch
      {|
__global__ void k(int* out) {
  int t = threadIdx.x;
  int x = 5;
  int y = x++;
  int z = t--;
  int w = ++x;
  out[threadIdx.x] = y * 1000 + z;
  out[32 + threadIdx.x] = x * 1000 + w * 100 + t + 1;
}
|}
      (fun mem -> [ Value.Ptr (alloc_out mem) ])
  in
  let got = out_i32 mem 64 in
  Alcotest.(check int32) "y = x++ is 5, z = t-- is t (lane 0)" 5000l got.(0);
  Alcotest.(check int32) "lane 1" 5001l got.(1);
  Alcotest.(check int32) "x stepped twice, w = ++x is 7, t-- stepped (lane 3)"
    7703l got.(35)

(* Golden interpreter bytes: md5s of what the interpreter produces for
   the whole fleet corpus, so any change to the interpreter must
   reproduce every trace and every memory byte.  Each line of
   golden/interp.md5 is a case name and a digest:
   - trace/K/tbN: [Trace.encode_blocks] of kernel K's solo traces at
     size 1 with N traced blocks, recorded through {!Runner}'s
     canonical launcher;
   - memory/K: [Memory.snapshot] after K's untraced full-grid launch at
     size 1, the launch fleet vetting makes;
   - fused/P/D1xD2: the traces of each partition's fused kernel that
     the search enumerates for six fixed fleet pairs P. *)

module Runner = Hfuse_profiler.Runner

let golden_settings ~tb =
  Hfuse_profiler.Settings.resolve ~trace_blocks:tb
    ~sim_fuel:Launch.default_loop_fuel ~trace_mem_mb:0 ~cache_dir:None
    ~fault:None ()

let md5 s = Digest.to_hex (Digest.string s)
let traces_md5 bt = md5 (Trace.encode_blocks bt)

let snapshot_md5 mem =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, bytes) ->
      Buffer.add_string b name;
      Buffer.add_char b '\000';
      Buffer.add_bytes b bytes)
    (Memory.snapshot mem);
  md5 (Buffer.contents b)

let solo_cases () =
  List.concat_map
    (fun (s : Kernel_corpus.Spec.t) ->
      let traces tb =
        let settings = golden_settings ~tb in
        let c = Runner.configure (Memory.create ()) s ~size:1 in
        ( Printf.sprintf "trace/%s/tb%d" s.name tb,
          traces_md5 (Runner.spec_of ~settings c ~stream:0 ()).block_traces )
      in
      let memory =
        let mem = Memory.create () in
        let c = Runner.configure mem s ~size:1 in
        ( "memory/" ^ s.name,
          match
            Launch.launch_info mem c.info ~args:c.inst.args ~trace_blocks:0
          with
          | _ -> snapshot_md5 mem
          | exception e -> "error:" ^ Printexc.to_string e )
      in
      [ traces 1; traces 2; memory ])
    (Hfuse_fleet.Corpus.all_specs ())

let golden_pairs = [ 0; 100; 300; 500; 700; 1100 ]

let fused_cases () =
  let settings = golden_settings ~tb:1 in
  let pairs = Array.of_list (Hfuse_fleet.Fleet.all_pairs ()) in
  List.concat_map
    (fun i ->
      let p = pairs.(i) in
      let mem = Memory.create () in
      let c1 = Runner.configure mem p.Hfuse_fleet.Fleet.p_k1 ~size:1 in
      let c2 = Runner.configure mem p.p_k2 ~size:1 in
      let r =
        Hfuse_core.Search.search
          ~limits:(Arch.sm_limits Arch.gtx1080ti)
          ~profile:(List.map (fun _ -> 1.0))
          ~d0:(Runner.d0_for c1 c2) c1.info c2.info
      in
      List.filter_map
        (fun (cand : Hfuse_core.Search.candidate) ->
          if cand.config.reg_bound <> None then None
          else
            let f = cand.fused in
            Some
              ( Printf.sprintf "fused/%s+%s/%dx%d" p.p_k1.name p.p_k2.name
                  f.d1 f.d2,
                traces_md5 (Runner.hfuse_traces ~settings c1 c2 f) ))
        r.all)
    golden_pairs

let golden_interp_lines () =
  List.map (fun (n, d) -> n ^ " " ^ d) (solo_cases () @ fused_cases ())

let test_golden_interp () =
  let golden =
    In_channel.with_open_bin (Filename.concat "golden" "interp.md5")
      In_channel.input_lines
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check (list string)) "interpreter digests" golden
    (golden_interp_lines ())

let suite =
  [
    Alcotest.test_case "thread ids" `Quick test_thread_ids;
    Alcotest.test_case "divergent if" `Quick test_divergent_if;
    Alcotest.test_case "divergent loop/break/continue" `Quick
      test_divergent_loop_break_continue;
    Alcotest.test_case "early return" `Quick test_early_return;
    Alcotest.test_case "while and do-while" `Quick test_while_and_do_while;
    Alcotest.test_case "shared memory + barrier" `Quick
      test_shared_memory_barrier;
    Alcotest.test_case "partial barrier" `Quick test_partial_barrier;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "divergent goto rejected" `Quick
      test_divergent_goto_rejected;
    Alcotest.test_case "shuffle xor" `Quick test_shuffle_xor;
    Alcotest.test_case "warp reduction" `Quick test_warp_reduction;
    Alcotest.test_case "global atomics" `Quick test_atomics;
    Alcotest.test_case "shared atomics" `Quick test_shared_atomics;
    Alcotest.test_case "local arrays" `Quick test_local_arrays;
    Alcotest.test_case "grid-stride loop" `Quick test_grid_stride_and_blockidx;
    Alcotest.test_case "extern shared reinterpret" `Quick
      test_extern_shared_reinterpret;
    Alcotest.test_case "coalescing analysis" `Quick test_coalescing;
    Alcotest.test_case "bank conflicts" `Quick test_bank_conflicts;
    Alcotest.test_case "barrier in trace" `Quick test_barrier_in_trace;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "loop fuel" `Quick test_loop_fuel;
    Alcotest.test_case "post-increment yields the old value" `Quick
      test_post_incdec;
    Alcotest.test_case "golden interpreter bytes" `Quick test_golden_interp;
  ]
