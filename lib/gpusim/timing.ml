(* Cycle-level warp-scheduler replay — event-driven engine.

   Replays the dynamic traces recorded by {!Interp} through a model of
   the SM microarchitecture:

   - [Arch.schedulers_per_sm] warp schedulers per SM, each issuing at
     most one instruction per cycle from its own warp pool (greedy
     round-robin);
   - in-order warps with a scoreboard: a warp may issue its next
     instruction once the previous one's latency has elapsed — so a lone
     warp of dependent ALU ops reaches IPC 1/alu_latency, and hiding
     latency requires *other eligible warps*, which is the mechanism
     horizontal fusion exploits (Section II-A);
   - structural hazards: a load/store unit occupied [lsu_throughput]
     cycles per memory transaction (so uncoalesced accesses hurt), an
     SFU pipe, an MSHR-style cap on in-flight global transactions, and
     multi-cycle issue for fp32 on Volta's 64-core SM partitions;
   - partial barriers with arrival counters per (block, barrier id);
   - block-level residency limited by registers / shared memory /
     threads / block slots — the occupancy trade-off of Section IV-C;
   - a register cap below the kernel's natural register count injects
     local-memory spill traffic at a deterministic rate;
   - multi-stream dispatch with a leftover policy: stream 0's blocks
     fill SMs first, later streams backfill (how concurrent kernels
     actually share a GPU whose SMs are saturated, which is why parallel
     CUDA streams are not already "horizontal fusion for free").

   Counters reproduce the nvprof metrics of Section IV-A: issue-slot
   utilization, memory-instruction stall share, achieved occupancy, and
   elapsed cycles.

   Engine structure (vs the reference {!Timing_legacy} loop, whose
   report this engine reproduces bit-for-bit):

   - Per-SM event-driven stepping.  Each SM carries a [sm_wake] cycle
     below which it provably cannot issue and none of its counters'
     per-cycle contributions can change: every eligibility condition is
     either warp-local latency ([ready_at]), a structural pipe
     ([lsu/smem/sfu/gmem_bw_free_at], [sched_free_at]) or an MSHR slot
     freed by a completion ([gmem_next_complete]), and all of those are
     SM-local — cross-SM coupling exists only through the block queues,
     which are only consulted when one of the SM's *own* blocks
     completes (which requires an issue).  A sleeping SM's stall
     classification and resident-warp count are therefore constant, so
     visited cycles charge them from a cached copy without touching the
     warp pools, and globally-dead windows are charged arithmetically.
   - Hot-path de-allocation: barrier arrivals decode (id, count)
     directly from the packed payload; per-latency-class calendar
     queues replace the (cycle -> count) completion Hashtbl (completion
     times per class are inserted in nondecreasing order, so a flat
     ring suffices); block dispatch interns per-warp traces into
     immutable templates shared by every block instance of a kernel and
     recycles warp records (and their scoreboard rings) through a free
     list.
   - Self-profiling: {!engine_stats} counts visited vs skipped cycles,
     SM steps avoided, scan-skip hits and warp allocations, per run and
     cumulatively (atomics, so pooled replays on other domains count
     too). *)

exception Timing_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Timing_error s)) fmt

(** How queued blocks reach SMs.

    [Fifo] models the real Grid Management Unit for equal-priority
    streams: blocks dispatch in submission order, and a block that does
    not fit anywhere blocks everything behind it — so two concurrent
    kernels overlap only at the first one's tail, which is why parallel
    CUDA streams are not already "horizontal fusion for free"
    (Section I of the paper).

    [Leftover] is an idealised distributor that backfills any queued
    block into any SM with room; exposed for the ablation benches. *)
type dispatch_policy = Fifo | Leftover

(** One kernel launch submitted to the simulated GPU. *)
type launch_spec = {
  label : string;
  block_traces : Trace.block array;
      (** representative per-block traces; block [b] of the grid replays
          trace [b mod Array.length block_traces] *)
  grid : int;
  threads_per_block : int;
  regs : int;  (** per-thread registers after any cap *)
  spill : int;  (** registers spilled by the cap (0 = none) *)
  smem : int;  (** shared memory per block, bytes (static + dynamic) *)
  stream : int;
}

(** Per-kernel results. *)
type kernel_metrics = {
  k_label : string;
  k_elapsed_cycles : int;  (** first dispatch to last block completion *)
  k_issued : int;  (** warp instructions issued *)
  k_blocks_per_sm : int;  (** occupancy-limited residency *)
}

type report = {
  elapsed_cycles : int;
  time_ms : float;
  issued_slots : int;
  total_slots : int;  (** schedulers x SMs x elapsed cycles *)
  issue_slot_util : float;  (** percent *)
  mem_stall_slots : int;
  sync_stall_slots : int;
  other_stall_slots : int;
  idle_slots : int;
  mem_stall_pct : float;
      (** percent of stall slots attributable to memory waits *)
  occupancy : float;  (** percent: avg resident warps / max warps *)
  kernels : kernel_metrics list;
}

(* ------------------------------------------------------------------ *)
(* Engine self-profiling                                                *)
(* ------------------------------------------------------------------ *)

(** Observability counters for the replay engine itself: how much work
    the event-driven stepping avoided relative to a
    step-every-SM-every-cycle loop, and how much the hot path
    allocates.  Collected per {!run_with_stats} call and accumulated
    process-wide (atomically, so replays fanned over a domain pool
    count too) for the bench harness. *)
type engine_stats = {
  cycles_stepped : int;
      (** cycles the main loop actually visited (at least one SM live) *)
  cycles_skipped : int;
      (** globally-dead cycles charged arithmetically by skip-ahead *)
  sm_steps : int;  (** per-SM step invocations (pools were scanned) *)
  sm_steps_skipped : int;
      (** SM-cycles on visited cycles served from the sleeping SM's
          cached stall/residency contribution — each one is a full
          scheduler scan the legacy engine would have performed *)
  scan_skip_hits : int;
      (** scheduler steps answered by the scan-skip window cache *)
  warp_allocs : int;  (** warp records freshly allocated *)
  warp_reuses : int;  (** warp records recycled from the free list *)
}

(* process-wide accumulator; [run] may execute on pool worker domains,
   hence atomics rather than a plain mutable record *)
let cum_cycles_stepped = Atomic.make 0
let cum_cycles_skipped = Atomic.make 0
let cum_sm_steps = Atomic.make 0
let cum_sm_steps_skipped = Atomic.make 0
let cum_scan_skip_hits = Atomic.make 0
let cum_warp_allocs = Atomic.make 0
let cum_warp_reuses = Atomic.make 0

let cum_add a n = ignore (Atomic.fetch_and_add a n)

let accumulate (s : engine_stats) =
  cum_add cum_cycles_stepped s.cycles_stepped;
  cum_add cum_cycles_skipped s.cycles_skipped;
  cum_add cum_sm_steps s.sm_steps;
  cum_add cum_sm_steps_skipped s.sm_steps_skipped;
  cum_add cum_scan_skip_hits s.scan_skip_hits;
  cum_add cum_warp_allocs s.warp_allocs;
  cum_add cum_warp_reuses s.warp_reuses

let accumulate_stats = accumulate

let cumulative_stats () =
  {
    cycles_stepped = Atomic.get cum_cycles_stepped;
    cycles_skipped = Atomic.get cum_cycles_skipped;
    sm_steps = Atomic.get cum_sm_steps;
    sm_steps_skipped = Atomic.get cum_sm_steps_skipped;
    scan_skip_hits = Atomic.get cum_scan_skip_hits;
    warp_allocs = Atomic.get cum_warp_allocs;
    warp_reuses = Atomic.get cum_warp_reuses;
  }

let reset_cumulative_stats () =
  Atomic.set cum_cycles_stepped 0;
  Atomic.set cum_cycles_skipped 0;
  Atomic.set cum_sm_steps 0;
  Atomic.set cum_sm_steps_skipped 0;
  Atomic.set cum_scan_skip_hits 0;
  Atomic.set cum_warp_allocs 0;
  Atomic.set cum_warp_reuses 0

let pp_engine_stats ppf (s : engine_stats) =
  let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b in
  let cycles = s.cycles_stepped + s.cycles_skipped in
  let sm_cycles = s.sm_steps + s.sm_steps_skipped in
  Fmt.pf ppf
    "cycles %d (%d stepped, %d skipped = %.1f%%); SM-steps %d (%d skipped = \
     %.1f%%, %d scan-skip hits); warps %d alloc + %d reused"
    cycles s.cycles_stepped s.cycles_skipped
    (pct s.cycles_skipped cycles)
    s.sm_steps s.sm_steps_skipped
    (pct s.sm_steps_skipped sm_cycles)
    s.scan_skip_hits s.warp_allocs s.warp_reuses

(* ------------------------------------------------------------------ *)
(* Instruction costs                                                    *)
(* ------------------------------------------------------------------ *)

(* Spill traffic: one local-memory round trip is injected every
   [spill_interval spill] instructions.  nvcc spills the coldest live
   ranges first, so a handful of spilled registers costs little (their
   reloads sit in L1 and are touched rarely), while deep spilling shows
   up as the memory-stall growth Fig. 9 reports for Im2Col+Upsample.
   Calibrated so ~6 spilled registers inject ~1% extra instructions and
   deep spilling (tens of registers) costs ~5-10%. *)
let spill_divisor = 768

let spill_interval spill =
  if spill <= 0 then max_int else max 12 (spill_divisor / spill)

(* Per-class costs over the packed (code, payload) encoding, used by
   the replay inner loop without allocation.  Codes as in {!Instr.code}. *)

let hot_dep_latency (arch : Arch.t) code payload =
  match code with
  | 0 | 1 | 14 -> arch.alu_latency
  | 2 -> arch.dalu_latency
  | 3 -> arch.sfu_latency
  | 4 -> arch.shfl_latency
  | 5 ->
      let miss = payload lsr 10 and hit = payload land 1023 in
      let base = if miss > 0 then arch.gmem_latency else arch.l1_latency in
      base + ((miss + hit) * arch.lsu_throughput)
  | 6 -> arch.alu_latency + (payload * arch.lsu_throughput)
  | 7 -> arch.smem_latency + ((payload - 1) * arch.lsu_throughput)
  | 8 -> arch.alu_latency + ((payload - 1) * arch.lsu_throughput)
  | 9 | 10 -> arch.alu_latency
  | 11 -> arch.lmem_latency
  | 12 -> arch.alu_latency + arch.lsu_throughput
  | 13 -> arch.alu_latency
  | _ -> arch.alu_latency

let hot_lsu_cycles (arch : Arch.t) code payload =
  match code with
  | 5 ->
      ((payload lsr 10) + (payload land 1023)) * arch.lsu_throughput
  | 6 | 7 | 8 -> payload * arch.lsu_throughput
  | 9 -> 8 + (12 * payload)
  | 10 -> (2 + (4 * payload)) * arch.lsu_throughput
  | 11 | 12 -> arch.lsu_throughput
  | _ -> 0

let hot_sfu_cycles (arch : Arch.t) code = if code = 3 then arch.sfu_throughput else 0

let hot_sched_cycles (arch : Arch.t) code =
  match code with
  | 1 -> arch.fp32_units_factor
  | 2 -> 4
  | c when c >= 5 && c <= 12 ->
      (* memory instructions occupy the issue port an extra cycle for
         address generation / predication, as on real SMs *)
      2
  | _ -> 1

(* DRAM-side transactions: only L1 misses reach DRAM; spills are
   L1-resident and charged no DRAM bandwidth *)
let hot_gmem_txns code payload =
  match code with 5 -> payload lsr 10 | 6 | 10 -> payload | _ -> 0

(* nvprof's "memory dependency" stall reason covers global/local memory
   only; shared-memory traffic and atomics show up as execution
   dependencies.  Classification follows that definition. *)
let hot_is_gmem_stall code = code = 5 || code = 11
let hot_is_bar code = code = 13

(* ------------------------------------------------------------------ *)
(* Simulation state                                                     *)
(* ------------------------------------------------------------------ *)

(* warp run states *)
let st_ready = 0
let st_barrier = 1
let st_done = 2

(* Interned per-warp trace: one immutable template per (kernel, trace
   block, warp), shared by every block instance of the grid — thousands
   of dispatches point at the same code/payload arrays instead of
   copying (pointer-)fields into fresh records. *)
type wtrace = {
  wt_codes : int array;
  wt_payloads : int array;
  wt_len : int;
  wt_threads : int;  (** live threads in this warp *)
}

type warp = {
  mutable w_kernel : int;  (** index into specs *)
  mutable w_block_uid : int;  (** unique block instance id (barrier scope) *)
  mutable w_threads : int;  (** live threads in this warp *)
  mutable codes : int array;
  mutable payloads : int array;
  mutable len : int;
  mutable pc : int;
  mutable ready_at : int;
  mutable state : int;
  mutable last_was_mem : bool;  (** stalled on a memory result *)
  mutable icount : int;  (** instructions issued (for load-use joins) *)
  pend_ready : int array;  (** ring: pending loads' completion cycles *)
  pend_use : int array;  (** ring: instruction index of first use *)
  mutable pend_head : int;
  mutable pend_n : int;
  mutable spill_counter : int;
  mutable pending_spill : int;  (** injected local accesses owed *)
}

type bar_key = int * int (* block uid, barrier id *)

(* A scheduler's warp pool: flat array + count + round-robin cursor.
   Removal compacts in place, preserving relative order. *)
type pool = { mutable parr : warp array; mutable pn : int; mutable prr : int }

let pool_create () = { parr = [||]; pn = 0; prr = 0 }

let pool_add p w =
  if p.pn = Array.length p.parr then begin
    let cap = max 8 (2 * Array.length p.parr) in
    let a = Array.make cap w in
    Array.blit p.parr 0 a 0 p.pn;
    p.parr <- a
  end;
  p.parr.(p.pn) <- w;
  p.pn <- p.pn + 1

type block_instance = {
  b_kernel : int;
  b_uid : int;
  mutable b_warps_left : int;
}

(* Calendar queue for in-flight global transactions of one latency
   class.  Completion times are inserted as [issue cycle + constant
   latency] with a nondecreasing issue cycle, so they arrive sorted: a
   flat power-of-two ring of (time, count) pairs replaces the legacy
   (cycle -> count) Hashtbl — O(1) push/pop, no per-transaction
   allocation, no lazy full-table filter on drain. *)
type evq = {
  mutable q_times : int array;
  mutable q_counts : int array;
  mutable q_head : int;
  mutable q_n : int;
}

let evq_create () =
  { q_times = Array.make 64 0; q_counts = Array.make 64 0; q_head = 0; q_n = 0 }

let evq_grow q =
  let cap = Array.length q.q_times in
  let ts = Array.make (2 * cap) 0 and cs = Array.make (2 * cap) 0 in
  for i = 0 to q.q_n - 1 do
    let j = (q.q_head + i) land (cap - 1) in
    ts.(i) <- q.q_times.(j);
    cs.(i) <- q.q_counts.(j)
  done;
  q.q_times <- ts;
  q.q_counts <- cs;
  q.q_head <- 0

let evq_push q t n =
  if q.q_n = Array.length q.q_times then evq_grow q;
  let tail = (q.q_head + q.q_n) land (Array.length q.q_times - 1) in
  q.q_times.(tail) <- t;
  q.q_counts.(tail) <- n;
  q.q_n <- q.q_n + 1

let evq_head_time q = if q.q_n = 0 then max_int else q.q_times.(q.q_head)

type sm = {
  sm_id : int;
  pools : pool array;  (** per scheduler *)
  mutable warp_seq : int;  (** for scheduler assignment *)
  mutable blocks : block_instance list;
  mutable regs_used : int;
  mutable smem_used : int;
  mutable threads_used : int;
  mutable lsu_free_at : int;  (** global/local LD-ST path (L1/TEX) *)
  mutable smem_free_at : int;  (** shared-memory unit (incl. atomics) *)
  mutable sfu_free_at : int;
  mutable gmem_bw_free_at : int;  (** DRAM-bandwidth pipe *)
  sched_free_at : int array;
  sched_next_try : int array;
      (** scan-skip: no eligible warp before this cycle (valid while
          [sm_gen] unchanged and the miss was latency-only) *)
  sched_stall_class : int array;
      (** cached stall class for the scan-skip window (0 idle, 1 sync,
          2 mem, 3 other) *)
  sched_gen : int array;  (** generation at which sched_next_try was set *)
  mutable sm_gen : int;
      (** bumped whenever eligibility can change asynchronously:
          barrier release, block dispatch, structural-hazard miss *)
  mutable gmem_inflight : int;
  mutable gmem_next_complete : int;
      (** earliest completion cycle across the three calendar queues *)
  q_gmem : evq;  (** DRAM-latency completions (misses, stores, atomics) *)
  q_l1 : evq;  (** cache-hit completions *)
  q_lmem : evq;  (** local-memory (spill) completions *)
  barriers : (bar_key, int * warp list) Hashtbl.t;
  (* --- event-driven stepping state --- *)
  mutable sm_wake : int;
      (** earliest cycle at which this SM could issue or change any
          per-cycle counter contribution; the SM is not stepped before *)
  wake_classes : int array;
      (** per scheduler: the stall class contributed at the last step
          (all >= 0 whenever the SM sleeps — a progressing SM wakes at
          the very next cycle) *)
  mutable wake_resident : int;  (** resident warps at the last step *)
}

(* ------------------------------------------------------------------ *)
(* The simulator                                                        *)
(* ------------------------------------------------------------------ *)

type counters = {
  mutable issued : int;
  mutable mem_stall : int;
  mutable sync_stall : int;
  mutable other_stall : int;
  mutable idle : int;
  mutable resident_warp_cycles : int;  (** sum over cycles of warps *)
  issued_per_kernel : int array;
  first_dispatch : int array;
  last_complete : int array;
}

type run_stats = {
  mutable s_cycles_stepped : int;
  mutable s_cycles_skipped : int;
  mutable s_sm_steps : int;
  mutable s_sm_steps_skipped : int;
  mutable s_scan_skip_hits : int;
  mutable s_warp_allocs : int;
  mutable s_warp_reuses : int;
}

let run_with_stats ?(policy = Fifo) (arch : Arch.t) (specs : launch_spec list)
    : report * engine_stats =
  if specs = [] then fail "no launches to simulate";
  let specs_a = Array.of_list specs in
  let nk = Array.length specs_a in
  Array.iter
    (fun s ->
      if Array.length s.block_traces = 0 then
        fail "launch %s has no recorded block traces" s.label;
      if s.threads_per_block <= 0 then
        fail "launch %s has nonpositive block size" s.label)
    specs_a;
  let limits = Arch.sm_limits arch in
  let blocks_per_sm_of k =
    Hfuse_core.Occupancy.blocks_per_sm limits ~regs:specs_a.(k).regs
      ~threads:specs_a.(k).threads_per_block ~smem:specs_a.(k).smem
  in
  Array.iteri
    (fun k s ->
      if blocks_per_sm_of k = 0 then
        fail "kernel %s cannot fit a single block on an SM (%d regs, %d smem)"
          s.label s.regs s.smem)
    specs_a;
  let st =
    {
      s_cycles_stepped = 0;
      s_cycles_skipped = 0;
      s_sm_steps = 0;
      s_sm_steps_skipped = 0;
      s_scan_skip_hits = 0;
      s_warp_allocs = 0;
      s_warp_reuses = 0;
    }
  in
  (* interned per-warp templates: one per (kernel, trace block, warp),
     shared by all block instances of that kernel *)
  let templates =
    Array.map
      (fun s ->
        Array.map
          (fun traces ->
            Array.mapi
              (fun w (t : Trace.t) ->
                let live = min 32 (s.threads_per_block - (w * 32)) in
                {
                  wt_codes = t.Trace.codes;
                  wt_payloads = t.Trace.payloads;
                  wt_len = t.Trace.len;
                  wt_threads = max 1 live;
                })
              traces)
          s.block_traces)
      specs_a
  in
  (* stream queues: per stream, FIFO of (kernel, block index) in
     submission order *)
  let streams =
    List.sort_uniq compare (List.map (fun s -> s.stream) specs)
  in
  let queues =
    List.map
      (fun st ->
        let q = Queue.create () in
        Array.iteri
          (fun k s ->
            if s.stream = st then
              for b = 0 to s.grid - 1 do
                Queue.add (k, b) q
              done)
          specs_a;
        q)
      streams
  in
  let sms =
    Array.init arch.sms (fun i ->
        {
          sm_id = i;
          pools = Array.init arch.schedulers_per_sm (fun _ -> pool_create ());
          warp_seq = 0;
          blocks = [];
          regs_used = 0;
          smem_used = 0;
          threads_used = 0;
          lsu_free_at = 0;
          smem_free_at = 0;
          sfu_free_at = 0;
          gmem_bw_free_at = 0;
          sched_free_at = Array.make arch.schedulers_per_sm 0;
          sched_next_try = Array.make arch.schedulers_per_sm 0;
          sched_stall_class = Array.make arch.schedulers_per_sm 0;
          sched_gen = Array.make arch.schedulers_per_sm (-1);
          sm_gen = 0;
          gmem_inflight = 0;
          gmem_next_complete = max_int;
          q_gmem = evq_create ();
          q_l1 = evq_create ();
          q_lmem = evq_create ();
          barriers = Hashtbl.create 8;
          sm_wake = 0;
          wake_classes = Array.make arch.schedulers_per_sm 0;
          wake_resident = 0;
        })
  in
  let c =
    {
      issued = 0;
      mem_stall = 0;
      sync_stall = 0;
      other_stall = 0;
      idle = 0;
      resident_warp_cycles = 0;
      issued_per_kernel = Array.make nk 0;
      first_dispatch = Array.make nk max_int;
      last_complete = Array.make nk 0;
    }
  in
  let block_uid = ref 0 in
  let live_blocks = ref 0 in
  let reg_granule r =
    let g = limits.Hfuse_core.Occupancy.reg_alloc_granularity in
    max g ((r + g - 1) / g * g)
  in
  (* admission check for kernel k on SM *)
  let fits sm k =
    let s = specs_a.(k) in
    List.length sm.blocks < arch.max_blocks_per_sm
    && sm.threads_used + s.threads_per_block <= arch.max_threads_per_sm
    && sm.smem_used + s.smem <= arch.smem_per_sm
    && sm.regs_used + (reg_granule s.regs * s.threads_per_block)
       <= arch.regs_per_sm
  in
  (* warp records (and their scoreboard rings) recycle through a free
     list: the grid dispatches thousands of block instances whose warps
     differ only in mutable state *)
  let free_warps = ref [] in
  let alloc_warp (wt : wtrace) ~kernel ~uid ~cycle : warp =
    match !free_warps with
    | w :: rest ->
        free_warps := rest;
        st.s_warp_reuses <- st.s_warp_reuses + 1;
        w.w_kernel <- kernel;
        w.w_block_uid <- uid;
        w.w_threads <- wt.wt_threads;
        w.codes <- wt.wt_codes;
        w.payloads <- wt.wt_payloads;
        w.len <- wt.wt_len;
        w.pc <- 0;
        w.ready_at <- cycle + 1;
        w.state <- st_ready;
        w.last_was_mem <- false;
        w.icount <- 0;
        w.pend_head <- 0;
        w.pend_n <- 0;
        w.spill_counter <- 0;
        w.pending_spill <- 0;
        w
    | [] ->
        st.s_warp_allocs <- st.s_warp_allocs + 1;
        {
          w_kernel = kernel;
          w_block_uid = uid;
          w_threads = wt.wt_threads;
          codes = wt.wt_codes;
          payloads = wt.wt_payloads;
          len = wt.wt_len;
          pc = 0;
          ready_at = cycle + 1;
          state = st_ready;
          last_was_mem = false;
          icount = 0;
          pend_ready = Array.make arch.load_slots 0;
          pend_use = Array.make arch.load_slots 0;
          pend_head = 0;
          pend_n = 0;
          spill_counter = 0;
          pending_spill = 0;
        }
  in
  let pool_compact p =
    let j = ref 0 in
    for i = 0 to p.pn - 1 do
      let w = p.parr.(i) in
      if w.state <> st_done then begin
        p.parr.(!j) <- w;
        incr j
      end
      else free_warps := w :: !free_warps
    done;
    p.pn <- !j;
    if p.pn > 0 then p.prr <- p.prr mod p.pn else p.prr <- 0
  in
  let dispatch_block sm k b ~cycle =
    let s = specs_a.(k) in
    let uid = !block_uid in
    incr block_uid;
    incr live_blocks;
    let tmpl = templates.(k).(b mod Array.length templates.(k)) in
    let warps = Array.length tmpl in
    let bi = { b_kernel = k; b_uid = uid; b_warps_left = warps } in
    sm.sm_gen <- sm.sm_gen + 1;
    sm.blocks <- bi :: sm.blocks;
    sm.regs_used <- sm.regs_used + (reg_granule s.regs * s.threads_per_block);
    sm.smem_used <- sm.smem_used + s.smem;
    sm.threads_used <- sm.threads_used + s.threads_per_block;
    if c.first_dispatch.(k) = max_int then c.first_dispatch.(k) <- cycle;
    for w = 0 to warps - 1 do
      let wt = tmpl.(w) in
      if wt.wt_len = 0 then bi.b_warps_left <- bi.b_warps_left - 1
      else begin
        let warp = alloc_warp wt ~kernel:k ~uid ~cycle in
        let sched = sm.warp_seq mod arch.schedulers_per_sm in
        sm.warp_seq <- sm.warp_seq + 1;
        pool_add sm.pools.(sched) warp
      end
    done;
    if bi.b_warps_left = 0 then begin
      (* degenerate: empty traces *)
      sm.blocks <- List.filter (fun b -> b != bi) sm.blocks;
      sm.regs_used <- sm.regs_used - (reg_granule s.regs * s.threads_per_block);
      sm.smem_used <- sm.smem_used - s.smem;
      sm.threads_used <- sm.threads_used - s.threads_per_block;
      decr live_blocks;
      c.last_complete.(k) <- max c.last_complete.(k) cycle
    end
  in
  let try_dispatch sm ~cycle =
    match policy with
    | Leftover ->
        (* idealised backfill: try queues in stream order *)
        let rec go queues =
          match queues with
          | [] -> ()
          | q :: rest -> (
              match Queue.peek_opt q with
              | Some (k, _) when fits sm k ->
                  let k, b = Queue.pop q in
                  dispatch_block sm k b ~cycle;
                  go (q :: rest)
              | _ -> go rest)
        in
        go queues
    | Fifo ->
        (* global submission order with head-of-line blocking: only the
           first non-empty queue's head may dispatch *)
        let rec head = function
          | [] -> None
          | q :: rest -> if Queue.is_empty q then head rest else Some q
        in
        let continue_ = ref true in
        while !continue_ do
          match head queues with
          | Some q when (match Queue.peek_opt q with
                        | Some (k, _) -> fits sm k
                        | None -> false) ->
              let k, b = Queue.pop q in
              dispatch_block sm k b ~cycle
          | _ -> continue_ := false
        done
  in
  let complete_block sm (bi : block_instance) ~cycle =
    let s = specs_a.(bi.b_kernel) in
    sm.blocks <- List.filter (fun b -> b != bi) sm.blocks;
    sm.regs_used <- sm.regs_used - (reg_granule s.regs * s.threads_per_block);
    sm.smem_used <- sm.smem_used - s.smem;
    sm.threads_used <- sm.threads_used - s.threads_per_block;
    decr live_blocks;
    c.last_complete.(bi.b_kernel) <- max c.last_complete.(bi.b_kernel) cycle;
    try_dispatch sm ~cycle
  in
  let find_block sm uid =
    List.find (fun b -> b.b_uid = uid) sm.blocks
  in
  (* initial fill *)
  let cycle = ref 0 in
  Array.iter (fun sm -> try_dispatch sm ~cycle:0) sms;
  let queues_empty () = List.for_all Queue.is_empty queues in
  (* drain gmem completions up to now *)
  let drain_gmem sm ~now =
    if sm.gmem_next_complete <= now then begin
      let drain_q q =
        while q.q_n > 0 && q.q_times.(q.q_head) <= now do
          sm.gmem_inflight <- sm.gmem_inflight - q.q_counts.(q.q_head);
          q.q_head <- (q.q_head + 1) land (Array.length q.q_times - 1);
          q.q_n <- q.q_n - 1
        done
      in
      drain_q sm.q_gmem;
      drain_q sm.q_l1;
      drain_q sm.q_lmem;
      sm.gmem_next_complete <-
        min (evq_head_time sm.q_gmem)
          (min (evq_head_time sm.q_l1) (evq_head_time sm.q_lmem));
      (* in-flight capacity freed: structural misses may clear *)
      sm.sm_gen <- sm.sm_gen + 1
    end
  in
  (* issue one instruction of [w] on [sm]/[sched]; assumes eligibility *)
  let issue sm sched (w : warp) ~now =
    let s = specs_a.(w.w_kernel) in
    let code, payload =
      if w.pending_spill > 0 then begin
        w.pending_spill <- w.pending_spill - 1;
        if w.pending_spill land 1 = 0 then (11, 0) (* LDL *) else (12, 0)
      end
      else begin
        let code = w.codes.(w.pc) and payload = w.payloads.(w.pc) in
        w.pc <- w.pc + 1;
        (* spill injection *)
        (if s.spill > 0 then begin
           w.spill_counter <- w.spill_counter + 1;
           if w.spill_counter >= spill_interval s.spill then begin
             w.spill_counter <- 0;
             w.pending_spill <- 2 (* one store + one reload *)
           end
         end);
        (code, payload)
      end
    in
    c.issued <- c.issued + 1;
    c.issued_per_kernel.(w.w_kernel) <- c.issued_per_kernel.(w.w_kernel) + 1;
    (* load-use scoreboard: loads park in a small ring; the warp only
       stalls when it reaches a pending load's use point (the compiler
       hoists/unrolls, so several loads pipeline per warp) *)
    let is_load = code = 5 || code = 7 || code = 11 in
    w.icount <- w.icount + 1;
    let slots = Array.length w.pend_ready in
    let join_head () =
      let r = w.pend_ready.(w.pend_head) in
      if r > w.ready_at then begin
        w.ready_at <- r;
        w.last_was_mem <- true
      end;
      w.pend_head <- (w.pend_head + 1) mod slots;
      w.pend_n <- w.pend_n - 1
    in
    w.last_was_mem <- false;
    while w.pend_n > 0 && w.pend_use.(w.pend_head) <= w.icount do
      join_head ()
    done;
    if is_load then begin
      if w.pend_n = slots then join_head ();
      let tail = (w.pend_head + w.pend_n) mod slots in
      w.pend_ready.(tail) <- now + hot_dep_latency arch code payload;
      w.pend_use.(tail) <- w.icount + arch.load_use_distance;
      w.pend_n <- w.pend_n + 1;
      w.ready_at <- max w.ready_at (now + arch.alu_latency)
    end
    else
      w.ready_at <- max w.ready_at (now + hot_dep_latency arch code payload);
    let lsu = hot_lsu_cycles arch code payload in
    if lsu > 0 then begin
      if code = 7 || code = 8 || code = 9 then
        sm.smem_free_at <- max sm.smem_free_at now + lsu
      else sm.lsu_free_at <- max sm.lsu_free_at now + lsu
    end;
    let sfu = hot_sfu_cycles arch code in
    if sfu > 0 then sm.sfu_free_at <- max sm.sfu_free_at now + sfu;
    let schedc = hot_sched_cycles arch code in
    if schedc > 1 then sm.sched_free_at.(sched) <- now + schedc;
    let register_completion q t n =
      if n > 0 then begin
        if t < sm.gmem_next_complete then sm.gmem_next_complete <- t;
        evq_push q t n
      end
    in
    (if code = 5 then begin
       (* loads: misses pay DRAM latency and bandwidth; cache hits hold
          their MSHR for the (shorter) cache round trip only *)
       let miss = payload lsr 10 and hit = payload land 1023 in
       sm.gmem_inflight <- sm.gmem_inflight + miss + hit;
       if miss > 0 then
         sm.gmem_bw_free_at <-
           max sm.gmem_bw_free_at now + (miss * arch.gmem_cyc_per_txn);
       register_completion sm.q_gmem (now + arch.gmem_latency) miss;
       register_completion sm.q_l1 (now + arch.l1_latency) hit
     end
     else begin
       let txns = hot_gmem_txns code payload in
       if txns > 0 then begin
         sm.gmem_inflight <- sm.gmem_inflight + txns;
         (* stores drain through the L2 write buffer: half the DRAM-pipe
            charge of a read *)
         let bw_cost =
           if code = 6 then (txns * arch.gmem_cyc_per_txn + 1) / 2
           else txns * arch.gmem_cyc_per_txn
         in
         sm.gmem_bw_free_at <- max sm.gmem_bw_free_at now + bw_cost;
         if code = 11 || code = 12 then
           register_completion sm.q_lmem (now + arch.lmem_latency) txns
         else register_completion sm.q_gmem (now + arch.gmem_latency) txns
       end
     end);
    (* barrier?  (id, count) decode straight off the packed payload —
       the legacy engine allocated an [Instr.Bar] here on every arrival *)
    (if hot_is_bar code then begin
       let id = payload lsr 20 and count = payload land 0xFFFFF in
       let key = (w.w_block_uid, id) in
       let arrived, waiters =
         Option.value (Hashtbl.find_opt sm.barriers key) ~default:(0, [])
       in
       let arrived = arrived + w.w_threads in
       if arrived >= count then begin
         (* release all waiters and this warp *)
         List.iter
           (fun (x : warp) ->
             x.state <- st_ready;
             x.ready_at <- now + arch.alu_latency)
           waiters;
         w.ready_at <- now + arch.alu_latency;
         sm.sm_gen <- sm.sm_gen + 1;
         Hashtbl.remove sm.barriers key
       end
       else begin
         w.state <- st_barrier;
         Hashtbl.replace sm.barriers key (arrived, w :: waiters)
       end
     end);
    (* done?  (a warp parked at a barrier is not finished even if the
       barrier was its last instruction) *)
    if w.pc >= w.len && w.pending_spill = 0 && w.state <> st_barrier then begin
      w.state <- st_done;
      let bi = find_block sm w.w_block_uid in
      bi.b_warps_left <- bi.b_warps_left - 1;
      if bi.b_warps_left = 0 then complete_block sm bi ~cycle:now
    end
  in
  (* can [w]'s next instruction structurally issue now?
     [struct_miss] is set when a latency-ready warp was blocked by a
     structural hazard (which can clear without a warp event). *)
  let struct_miss = ref false in
  let eligible sm (w : warp) ~now =
    w.state = st_ready
    && w.ready_at <= now
    &&
    let code, payload =
      if w.pending_spill > 0 then
        if w.pending_spill land 1 = 0 then (11, 0) else (12, 0)
      else (w.codes.(w.pc), w.payloads.(w.pc))
    in
    (* every global-path sector (L2/DRAM) holds an MSHR while in flight *)
    let txns =
      if code = 5 then (payload lsr 10) + (payload land 1023)
      else hot_gmem_txns code payload
    in
    let pipe_free =
      if hot_lsu_cycles arch code payload = 0 then true
      else if code = 7 || code = 8 || code = 9 then sm.smem_free_at <= now
      else sm.lsu_free_at <= now
    in
    let ok =
      pipe_free
      && (hot_sfu_cycles arch code = 0 || sm.sfu_free_at <= now)
      && (txns = 0
         || (sm.gmem_inflight + txns <= arch.gmem_max_inflight
            && sm.gmem_bw_free_at <= now))
    in
    if not ok then struct_miss := true;
    ok
  in
  (* one scheduler step; returns -1 when it issued (or its port is busy
     completing an earlier multi-cycle issue, which is still a utilised
     slot), otherwise the stall class: 0 idle, 1 sync, 2 mem, 3 other *)
  let busy_slots = ref 0 in
  let step_scheduler sm sched ~now =
    if sm.sched_free_at.(sched) > now then begin
      incr busy_slots;
      -1
    end
    else if
      sm.sched_gen.(sched) = sm.sm_gen && sm.sched_next_try.(sched) > now
    then begin
      (* cached miss: nothing can have become eligible *)
      st.s_scan_skip_hits <- st.s_scan_skip_hits + 1;
      sm.sched_stall_class.(sched)
    end
    else begin
      let p = sm.pools.(sched) in
      if p.pn = 0 then 0
      else begin
        let found = ref None in
        struct_miss := false;
        (* one pass: find an eligible warp, and gather the stall
           classification facts in case there is none *)
        let all_barrier = ref true and any_mem = ref false in
        let next_ready = ref max_int in
        (try
           for i = 0 to p.pn - 1 do
             let idx = (p.prr + i) mod p.pn in
             let w = p.parr.(idx) in
             if eligible sm w ~now then begin
               found := Some (idx, w);
               raise Exit
             end;
             if w.state <> st_barrier then all_barrier := false;
             if w.state = st_ready then begin
               if w.ready_at > now && w.ready_at < !next_ready then
                 next_ready := w.ready_at;
               if
                 w.last_was_mem
                 || (w.pc < w.len && hot_is_gmem_stall w.codes.(w.pc))
               then any_mem := true
             end
           done
         with Exit -> ());
        match !found with
        | Some (idx, w) ->
            p.prr <- (idx + 1) mod p.pn;
            issue sm sched w ~now;
            if w.state = st_done then pool_compact p;
            -1
        | None ->
            let cls =
              if !all_barrier then 1 else if !any_mem then 2 else 3
            in
            (* cache the miss when it was latency-only *)
            if not !struct_miss then begin
              sm.sched_next_try.(sched) <- !next_ready;
              sm.sched_stall_class.(sched) <- cls;
              sm.sched_gen.(sched) <- sm.sm_gen
            end;
            cls
      end
    end
  in
  let add_stall cls n =
    match cls with
    | 0 -> c.idle <- c.idle + n
    | 1 -> c.sync_stall <- c.sync_stall + n
    | 2 -> c.mem_stall <- c.mem_stall + n
    | _ -> c.other_stall <- c.other_stall + n
  in
  (* next cycle at which this SM could issue or change its per-cycle
     contribution: warp latency expiries, structural pipes, issue-port
     completions, and MSHR completions.  All SM-local — cross-SM
     coupling only happens through an issue on this SM. *)
  let next_event sm ~now =
    let t = ref max_int in
    let upd x = if x > now && x < !t then t := x in
    Array.iter
      (fun p ->
        for i = 0 to p.pn - 1 do
          let w = p.parr.(i) in
          if w.state = st_ready then upd w.ready_at
        done)
      sm.pools;
    upd sm.lsu_free_at;
    upd sm.smem_free_at;
    upd sm.sfu_free_at;
    upd sm.gmem_bw_free_at;
    Array.iter upd sm.sched_free_at;
    (* gmem completions can unblock the in-flight limit *)
    upd sm.gmem_next_complete;
    !t
  in
  let all_warps_done () =
    !live_blocks = 0 && queues_empty ()
  in
  let nsched = arch.schedulers_per_sm in
  let max_cycles = 2_000_000_000 in
  let finished = ref false in
  while not !finished do
    if all_warps_done () then finished := true
    else begin
      let now = !cycle in
      if now > max_cycles then fail "timing simulation exceeded cycle budget";
      st.s_cycles_stepped <- st.s_cycles_stepped + 1;
      let progressed = ref false in
      let total_resident = ref 0 in
      Array.iter
        (fun sm ->
          if sm.sm_wake <= now then begin
            (* live SM: drain, step every scheduler, re-arm the wake *)
            st.s_sm_steps <- st.s_sm_steps + 1;
            drain_gmem sm ~now;
            let sm_progressed = ref false in
            for sched = 0 to nsched - 1 do
              let r = step_scheduler sm sched ~now in
              sm.wake_classes.(sched) <- r;
              if r < 0 then sm_progressed := true else add_stall r 1
            done;
            let res = ref 0 in
            Array.iter (fun p -> res := !res + p.pn) sm.pools;
            sm.wake_resident <- !res;
            total_resident := !total_resident + !res;
            if !sm_progressed then begin
              progressed := true;
              sm.sm_wake <- now + 1
            end
            else sm.sm_wake <- next_event sm ~now
          end
          else begin
            (* sleeping SM: its stall classes and resident count cannot
               have changed since its last step — charge the cached
               contribution without touching the pools *)
            st.s_sm_steps_skipped <- st.s_sm_steps_skipped + 1;
            for sched = 0 to nsched - 1 do
              add_stall sm.wake_classes.(sched) 1
            done;
            total_resident := !total_resident + sm.wake_resident
          end)
        sms;
      c.resident_warp_cycles <- c.resident_warp_cycles + !total_resident;
      if !progressed then cycle := now + 1
      else begin
        (* globally dead: skip ahead to the earliest SM wake, charging
           the skipped cycles with the (constant) per-SM classification *)
        let t =
          Array.fold_left (fun acc sm -> min acc sm.sm_wake) max_int sms
        in
        if t = max_int then begin
          if all_warps_done () then finished := true
          else
            fail
              "timing deadlock at cycle %d (barrier never satisfied or \
               dispatch starvation)"
              now
        end
        else begin
          let delta = t - now in
          if delta > 1 then begin
            Array.iter
              (fun sm ->
                for sched = 0 to nsched - 1 do
                  add_stall sm.wake_classes.(sched) (delta - 1)
                done)
              sms;
            c.resident_warp_cycles <-
              c.resident_warp_cycles + (!total_resident * (delta - 1));
            st.s_cycles_skipped <- st.s_cycles_skipped + (delta - 1)
          end;
          cycle := t
        end
      end
    end
  done;
  let elapsed = !cycle in
  let total_slots = arch.sms * arch.schedulers_per_sm * max 1 elapsed in
  let issued_all = c.issued + !busy_slots in
  let stall_slots = c.mem_stall + c.sync_stall + c.other_stall in
  let time_ms =
    float_of_int elapsed /. (arch.clock_ghz *. 1e9) *. 1e3
  in
  let kernels =
    List.mapi
      (fun k s ->
        {
          k_label = s.label;
          k_elapsed_cycles =
            (if c.first_dispatch.(k) = max_int then 0
             else c.last_complete.(k) - c.first_dispatch.(k));
          k_issued = c.issued_per_kernel.(k);
          k_blocks_per_sm = blocks_per_sm_of k;
        })
      specs
  in
  let stats =
    {
      cycles_stepped = st.s_cycles_stepped;
      cycles_skipped = st.s_cycles_skipped;
      sm_steps = st.s_sm_steps;
      sm_steps_skipped = st.s_sm_steps_skipped;
      scan_skip_hits = st.s_scan_skip_hits;
      warp_allocs = st.s_warp_allocs;
      warp_reuses = st.s_warp_reuses;
    }
  in
  accumulate stats;
  ( {
      elapsed_cycles = elapsed;
      time_ms;
      issued_slots = issued_all;
      total_slots;
      issue_slot_util =
        100.0 *. float_of_int issued_all /. float_of_int total_slots;
      mem_stall_slots = c.mem_stall;
      sync_stall_slots = c.sync_stall;
      other_stall_slots = c.other_stall;
      idle_slots = c.idle;
      mem_stall_pct =
        (if stall_slots = 0 then 0.0
         else 100.0 *. float_of_int c.mem_stall /. float_of_int stall_slots);
      occupancy =
        100.0
        *. float_of_int c.resident_warp_cycles
        /. float_of_int (arch.sms * Arch.max_warps_per_sm arch * max 1 elapsed);
      kernels;
    },
    stats )

let run ?policy (arch : Arch.t) (specs : launch_spec list) : report =
  fst (run_with_stats ?policy arch specs)
