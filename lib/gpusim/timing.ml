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
     classification and resident-warp count are therefore constant;
     they sit in a running aggregate over all SMs, which each visited
     cycle charges once and a globally-dead window charges
     arithmetically.
   - Scan-skip windows for every miss.  A scheduler scan that finds no
     eligible warp caches the least {!warp_bound} of its pool — the
     latency expiry of a waiting warp, the release of every pipe a
     structurally blocked warp needs, or "never" for a warp blocked on
     MSHRs — valid until that cycle or the next bump of [sm_gen]
     (barrier release, block dispatch, drain).  A sleeping SM wakes at
     the least of its schedulers' bounds and its next memory
     completion, without rescanning its warps.
   - No allocation on the hot path: the main loop, the scheduler scan
     and [issue] run [for]/[while] loops over unboxed locals; barrier
     arrivals decode (id, count) directly from the packed payload;
     per-latency-class calendar queues replace the (cycle -> count)
     completion Hashtbl (completion times per class are inserted in
     nondecreasing order, so a flat ring suffices); block dispatch
     interns per-warp traces into immutable templates — with one byte
     of eligibility facts per instruction — shared by every block
     instance of a kernel, and recycles warp records (and their
     scoreboard rings) through a free list.
   - Self-profiling: {!engine_stats} counts visited vs skipped cycles,
     SM steps avoided, scan-skip hits and warp allocations, per run and
     cumulatively (atomics, so pooled replays on other domains count
     too).  The counts describe the engine's own work, so they change
     whenever its internals do while every report stays identical. *)

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
    step-every-SM-every-cycle loop, and how often warp records were
    recycled.  Collected per {!run_with_stats} call and accumulated
    process-wide (atomically, so replays fanned over a domain pool
    count too) for the bench harness.  They are engine internals, not
    results: a change to the engine may move them while every report
    stays bit-identical. *)
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
      (** scheduler steps answered by a cached scan-skip window
          (latency or structural miss) instead of a pool scan *)
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


(* Eligibility facts of one trace instruction, packed into a byte: which
   structural resources its issue needs, and whether a wait on it counts
   as a memory-dependency stall.  Computed once per interned template
   (the MSHR transaction count itself is re-derived from the payload on
   the rare path that needs it). *)
let f_lsu = 1 (* occupies the global/local LD-ST path *)
let f_smem = 2 (* occupies the shared-memory unit *)
let f_sfu = 4
let f_mshr = 8 (* holds MSHR slots (L2/DRAM sectors) while in flight *)
let f_gmem_stall = 16
let f_structural = f_lsu lor f_smem lor f_sfu lor f_mshr

(* every global-path sector (L2/DRAM) holds an MSHR while in flight *)
let mshr_txns code payload =
  if code = 5 then (payload lsr 10) + (payload land 1023)
  else hot_gmem_txns code payload

let facts_of (arch : Arch.t) code payload =
  let pipe =
    if hot_lsu_cycles arch code payload = 0 then 0
    else if code = 7 || code = 8 || code = 9 then f_smem
    else f_lsu
  in
  pipe
  lor (if hot_sfu_cycles arch code > 0 then f_sfu else 0)
  lor (if mshr_txns code payload > 0 then f_mshr else 0)
  lor if hot_is_gmem_stall code then f_gmem_stall else 0

let imax (a : int) b = if a >= b then a else b

(* ------------------------------------------------------------------ *)
(* Simulation state                                                     *)
(* ------------------------------------------------------------------ *)

(* warp run states *)
let st_ready = 0
let st_barrier = 1
let st_done = 2

(* Interned per-warp trace: one immutable template per (kernel, trace
   block, warp), shared by every block instance of the grid — thousands
   of dispatches point at the same code/payload/facts arrays instead of
   copying (pointer-)fields into fresh records. *)
type wtrace = {
  wt_codes : int array;
  wt_payloads : int array;
  wt_facts : Bytes.t;  (** per-instruction {!facts_of} *)
  wt_len : int;
  wt_threads : int;  (** live threads in this warp *)
}

type warp = {
  mutable w_kernel : int;  (** index into specs *)
  mutable w_block_uid : int;  (** unique block instance id (barrier scope) *)
  mutable w_threads : int;  (** live threads in this warp *)
  mutable codes : int array;
  mutable payloads : int array;
  mutable facts : Bytes.t;
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
  mutable resident : int;  (** warps across the pools *)
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
      (** scan-skip window: no warp of the pool can issue before this
          cycle (a lower bound over its warps, valid while [sm_gen] is
          unchanged) *)
  sched_stall_class : int array;
      (** cached stall class for the scan-skip window (0 idle, 1 sync,
          2 mem, 3 other) *)
  sched_gen : int array;  (** generation at which sched_next_try was set *)
  mutable sm_gen : int;
      (** bumped whenever eligibility can change other than by a warp's
          own latency or a pipe's release: barrier release, block
          dispatch, in-flight capacity freed by a drain *)
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
  (* this SM's per-cycle contribution at its last step: stalled
     schedulers per class and resident warps (constant while it sleeps) *)
  mutable c_idle : int;
  mutable c_sync : int;
  mutable c_mem : int;
  mutable c_other : int;
  mutable c_res : int;
}

(* retire the oldest pending load: the warp waits for its result *)
let join_head (w : warp) =
  let r = w.pend_ready.(w.pend_head) in
  if r > w.ready_at then begin
    w.ready_at <- r;
    w.last_was_mem <- true
  end;
  let h = w.pend_head + 1 in
  w.pend_head <- (if h = Array.length w.pend_ready then 0 else h);
  w.pend_n <- w.pend_n - 1

let register_completion sm q t n =
  if n > 0 then begin
    if t < sm.gmem_next_complete then sm.gmem_next_complete <- t;
    evq_push q t n
  end

let drain_q sm q ~now =
  while q.q_n > 0 && q.q_times.(q.q_head) <= now do
    sm.gmem_inflight <- sm.gmem_inflight - q.q_counts.(q.q_head);
    q.q_head <- (q.q_head + 1) land (Array.length q.q_times - 1);
    q.q_n <- q.q_n - 1
  done

(* drain gmem completions up to now *)
let drain_gmem sm ~now =
  if sm.gmem_next_complete <= now then begin
    drain_q sm sm.q_gmem ~now;
    drain_q sm sm.q_l1 ~now;
    drain_q sm sm.q_lmem ~now;
    let a = evq_head_time sm.q_gmem
    and b = evq_head_time sm.q_l1
    and c = evq_head_time sm.q_lmem in
    let ab = if a < b then a else b in
    sm.gmem_next_complete <- (if ab < c then ab else c);
    (* in-flight capacity freed: MSHR-blocked warps may clear *)
    sm.sm_gen <- sm.sm_gen + 1
  end

(* Earliest cycle at which ready warp [w]'s next instruction could
   issue on [sm], given the state at [now]: its latency, then every
   structural resource it needs.  A result [<= now] means it is eligible
   now.  Otherwise the result is a sound lower bound until [sm_gen]
   moves: pipe [free_at]s only grow, and MSHR capacity is freed only by
   a drain, which bumps the generation — so an MSHR-blocked warp bounds
   to [max_int].  [spill_facts] are the facts of an injected spill
   access (no trace position). *)
let warp_bound (arch : Arch.t) spill_facts sm (w : warp) ~now =
  let r = w.ready_at in
  if r > now then r
  else begin
    let f =
      if w.pending_spill > 0 then spill_facts
      else Char.code (Bytes.get w.facts w.pc) land f_structural
    in
    if f = 0 then r
    else begin
      let b = ref r in
      if f land f_lsu <> 0 && sm.lsu_free_at > !b then b := sm.lsu_free_at;
      if f land f_smem <> 0 && sm.smem_free_at > !b then b := sm.smem_free_at;
      if f land f_sfu <> 0 && sm.sfu_free_at > !b then b := sm.sfu_free_at;
      if f land f_mshr <> 0 then begin
        let txns = mshr_txns w.codes.(w.pc) w.payloads.(w.pc) in
        if sm.gmem_inflight + txns > arch.gmem_max_inflight then b := max_int
        else if sm.gmem_bw_free_at > !b then b := sm.gmem_bw_free_at
      end;
      !b
    end
  end

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
  (* sums of every SM's [c_*] contribution: what one cycle charges *)
  mutable a_idle : int;
  mutable a_sync : int;
  mutable a_mem : int;
  mutable a_other : int;
  mutable a_res : int;
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
                let facts = Bytes.create t.Trace.len in
                for i = 0 to t.Trace.len - 1 do
                  Bytes.unsafe_set facts i
                    (Char.unsafe_chr
                       (facts_of arch t.Trace.codes.(i) t.Trace.payloads.(i)))
                done;
                {
                  wt_codes = t.Trace.codes;
                  wt_payloads = t.Trace.payloads;
                  wt_facts = facts;
                  wt_len = t.Trace.len;
                  wt_threads = max 1 live;
                })
              traces)
          s.block_traces)
      specs_a
  in
  (* spill accesses are LDL/STL: the same structural facts either way *)
  let spill_facts = facts_of arch 11 0 land f_structural in
  let spill_every =
    Array.map
      (fun s -> if s.spill > 0 then spill_interval s.spill else 0)
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
  let nsched = arch.schedulers_per_sm in
  let sms =
    Array.init arch.sms (fun i ->
        {
          sm_id = i;
          pools = Array.init nsched (fun _ -> pool_create ());
          resident = 0;
          warp_seq = 0;
          blocks = [];
          regs_used = 0;
          smem_used = 0;
          threads_used = 0;
          lsu_free_at = 0;
          smem_free_at = 0;
          sfu_free_at = 0;
          gmem_bw_free_at = 0;
          sched_free_at = Array.make nsched 0;
          sched_next_try = Array.make nsched 0;
          sched_stall_class = Array.make nsched 0;
          sched_gen = Array.make nsched (-1);
          sm_gen = 0;
          gmem_inflight = 0;
          gmem_next_complete = max_int;
          q_gmem = evq_create ();
          q_l1 = evq_create ();
          q_lmem = evq_create ();
          barriers = Hashtbl.create 8;
          sm_wake = 0;
          c_idle = 0;
          c_sync = 0;
          c_mem = 0;
          c_other = 0;
          c_res = 0;
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
      a_idle = 0;
      a_sync = 0;
      a_mem = 0;
      a_other = 0;
      a_res = 0;
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
        w.facts <- wt.wt_facts;
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
          facts = wt.wt_facts;
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
  let pool_compact sm p =
    let j = ref 0 in
    for i = 0 to p.pn - 1 do
      let w = p.parr.(i) in
      if w.state <> st_done then begin
        p.parr.(!j) <- w;
        incr j
      end
      else free_warps := w :: !free_warps
    done;
    sm.resident <- sm.resident - (p.pn - !j);
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
        let sched = sm.warp_seq mod nsched in
        sm.warp_seq <- sm.warp_seq + 1;
        pool_add sm.pools.(sched) warp;
        sm.resident <- sm.resident + 1
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
  let finish_warp sm (w : warp) ~now =
    w.state <- st_done;
    let bi = find_block sm w.w_block_uid in
    bi.b_warps_left <- bi.b_warps_left - 1;
    if bi.b_warps_left = 0 then complete_block sm bi ~cycle:now
  in
  (* set when a barrier release finished a waiter parked on its last
     instruction: that waiter may sit in another scheduler's pool *)
  let released_done = ref false in
  (* initial fill *)
  Array.iter (fun sm -> try_dispatch sm ~cycle:0) sms;
  (* issue one instruction of [w] on [sm]/[sched]; assumes eligibility *)
  let issue sm sched (w : warp) ~now =
    let code = ref 0 and payload = ref 0 in
    if w.pending_spill > 0 then begin
      w.pending_spill <- w.pending_spill - 1;
      (* LDL, then STL *)
      code := if w.pending_spill land 1 = 0 then 11 else 12
    end
    else begin
      code := w.codes.(w.pc);
      payload := w.payloads.(w.pc);
      w.pc <- w.pc + 1;
      (* spill injection *)
      let every = spill_every.(w.w_kernel) in
      if every > 0 then begin
        w.spill_counter <- w.spill_counter + 1;
        if w.spill_counter >= every then begin
          w.spill_counter <- 0;
          w.pending_spill <- 2 (* one store + one reload *)
        end
      end
    end;
    let code = !code and payload = !payload in
    c.issued <- c.issued + 1;
    c.issued_per_kernel.(w.w_kernel) <- c.issued_per_kernel.(w.w_kernel) + 1;
    (* load-use scoreboard: loads park in a small ring; the warp only
       stalls when it reaches a pending load's use point (the compiler
       hoists/unrolls, so several loads pipeline per warp) *)
    let is_load = code = 5 || code = 7 || code = 11 in
    w.icount <- w.icount + 1;
    let slots = Array.length w.pend_ready in
    w.last_was_mem <- false;
    while w.pend_n > 0 && w.pend_use.(w.pend_head) <= w.icount do
      join_head w
    done;
    if is_load then begin
      if w.pend_n = slots then join_head w;
      let tail = w.pend_head + w.pend_n in
      let tail = if tail >= slots then tail - slots else tail in
      w.pend_ready.(tail) <- now + hot_dep_latency arch code payload;
      w.pend_use.(tail) <- w.icount + arch.load_use_distance;
      w.pend_n <- w.pend_n + 1;
      w.ready_at <- imax w.ready_at (now + arch.alu_latency)
    end
    else
      w.ready_at <- imax w.ready_at (now + hot_dep_latency arch code payload);
    let lsu = hot_lsu_cycles arch code payload in
    if lsu > 0 then begin
      if code = 7 || code = 8 || code = 9 then
        sm.smem_free_at <- imax sm.smem_free_at now + lsu
      else sm.lsu_free_at <- imax sm.lsu_free_at now + lsu
    end;
    let sfu = hot_sfu_cycles arch code in
    if sfu > 0 then sm.sfu_free_at <- imax sm.sfu_free_at now + sfu;
    let schedc = hot_sched_cycles arch code in
    if schedc > 1 then sm.sched_free_at.(sched) <- now + schedc;
    (if code = 5 then begin
       (* loads: misses pay DRAM latency and bandwidth; cache hits hold
          their MSHR for the (shorter) cache round trip only *)
       let miss = payload lsr 10 and hit = payload land 1023 in
       sm.gmem_inflight <- sm.gmem_inflight + miss + hit;
       if miss > 0 then
         sm.gmem_bw_free_at <-
           imax sm.gmem_bw_free_at now + (miss * arch.gmem_cyc_per_txn);
       register_completion sm sm.q_gmem (now + arch.gmem_latency) miss;
       register_completion sm sm.q_l1 (now + arch.l1_latency) hit
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
         sm.gmem_bw_free_at <- imax sm.gmem_bw_free_at now + bw_cost;
         if code = 11 || code = 12 then
           register_completion sm sm.q_lmem (now + arch.lmem_latency) txns
         else register_completion sm sm.q_gmem (now + arch.gmem_latency) txns
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
         (* release all waiters and this warp; a waiter whose barrier
            was its last instruction finishes here *)
         List.iter
           (fun (x : warp) ->
             if x.pc >= x.len && x.pending_spill = 0 then begin
               finish_warp sm x ~now;
               released_done := true
             end
             else begin
               x.state <- st_ready;
               x.ready_at <- now + arch.alu_latency
             end)
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
    if w.pc >= w.len && w.pending_spill = 0 && w.state <> st_barrier then
      finish_warp sm w ~now
  in
  (* One scheduler step; returns -1 when it issued (or its port is busy
     completing an earlier multi-cycle issue, which is still a utilised
     slot), otherwise the stall class: 0 idle, 1 sync, 2 mem, 3 other.
     Every miss — latency or structural — caches its window: the
     pool's least {!warp_bound} and the stall class, both constant until
     that cycle or the next generation bump. *)
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
      let pn = p.pn and parr = p.parr in
      (* one pass from the round-robin cursor: find an eligible warp,
         and gather the window bound and stall facts in case there is
         none *)
      let found = ref (-1) and i = ref p.prr and k = ref 0 in
      let all_barrier = ref true and any_mem = ref false in
      let next = ref max_int in
      while !found < 0 && !k < pn do
        let w = parr.(!i) in
        (* a pool holds ready and barrier warps only: a warp is
           compacted out as soon as it finishes *)
        if w.state = st_ready then begin
          let b = warp_bound arch spill_facts sm w ~now in
          if b <= now then found := !i
          else begin
            all_barrier := false;
            if b < !next then next := b;
            if
              w.last_was_mem
              || w.pc < w.len
                 && Char.code (Bytes.get w.facts w.pc) land f_gmem_stall <> 0
            then any_mem := true
          end
        end;
        incr i;
        if !i = pn then i := 0;
        incr k
      done;
      if !found >= 0 then begin
        let idx = !found in
        let w = parr.(idx) in
        p.prr <- (if idx + 1 = pn then 0 else idx + 1);
        issue sm sched w ~now;
        if !released_done then begin
          released_done := false;
          for s = 0 to nsched - 1 do
            pool_compact sm sm.pools.(s)
          done
        end
        else if w.state = st_done then pool_compact sm p;
        -1
      end
      else begin
        let cls =
          if pn = 0 then 0
          else if !all_barrier then 1
          else if !any_mem then 2
          else 3
        in
        sm.sched_next_try.(sched) <- !next;
        sm.sched_stall_class.(sched) <- cls;
        sm.sched_gen.(sched) <- sm.sm_gen;
        cls
      end
    end
  in
  (* Step a live SM: drain, step every scheduler, swap its per-cycle
     contribution into the aggregate, and re-arm its wake.  An SM that
     did not progress sleeps until the earliest of its schedulers'
     window bounds and its next memory completion: every scheduler
     missed (a busy issue port counts as progress), so its windows
     cover every warp, and only a drain can move its generation. *)
  let step_sm sm ~now =
    st.s_sm_steps <- st.s_sm_steps + 1;
    drain_gmem sm ~now;
    let progressed = ref false and wake = ref sm.gmem_next_complete in
    let n_idle = ref 0 and n_sync = ref 0 in
    let n_mem = ref 0 and n_other = ref 0 in
    for sched = 0 to nsched - 1 do
      let r = step_scheduler sm sched ~now in
      if r < 0 then progressed := true
      else begin
        if r = 0 then incr n_idle
        else if r = 1 then incr n_sync
        else if r = 2 then incr n_mem
        else incr n_other;
        let b = sm.sched_next_try.(sched) in
        if b < !wake then wake := b
      end
    done;
    c.a_idle <- c.a_idle - sm.c_idle + !n_idle;
    c.a_sync <- c.a_sync - sm.c_sync + !n_sync;
    c.a_mem <- c.a_mem - sm.c_mem + !n_mem;
    c.a_other <- c.a_other - sm.c_other + !n_other;
    c.a_res <- c.a_res - sm.c_res + sm.resident;
    sm.c_idle <- !n_idle;
    sm.c_sync <- !n_sync;
    sm.c_mem <- !n_mem;
    sm.c_other <- !n_other;
    sm.c_res <- sm.resident;
    sm.sm_wake <- (if !progressed then now + 1 else !wake)
  in
  (* charge [n] cycles of every SM's current contribution *)
  let charge n =
    c.idle <- c.idle + (c.a_idle * n);
    c.sync_stall <- c.sync_stall + (c.a_sync * n);
    c.mem_stall <- c.mem_stall + (c.a_mem * n);
    c.other_stall <- c.other_stall + (c.a_other * n);
    c.resident_warp_cycles <- c.resident_warp_cycles + (c.a_res * n)
  in
  let all_warps_done () =
    !live_blocks = 0 && List.for_all Queue.is_empty queues
  in
  (* The reference loop also wakes at pipe releases and issue-port
     completions nobody waits on, so it sees a deadlock only after the
     last of them: report that cycle, as it does. *)
  let deadlock_cycle now =
    let t = ref now in
    let upd x = if x > !t then t := x in
    Array.iter
      (fun sm ->
        upd sm.lsu_free_at;
        upd sm.smem_free_at;
        upd sm.sfu_free_at;
        upd sm.gmem_bw_free_at;
        Array.iter upd sm.sched_free_at;
        Array.iter
          (fun p ->
            for i = 0 to p.pn - 1 do
              if p.parr.(i).state = st_ready then upd p.parr.(i).ready_at
            done)
          sm.pools)
      sms;
    !t
  in
  let nsms = Array.length sms in
  let max_cycles = 2_000_000_000 in
  let cycle = ref 0 in
  let finished = ref false in
  while not !finished do
    if all_warps_done () then finished := true
    else begin
      let now = !cycle in
      if now > max_cycles then fail "timing simulation exceeded cycle budget";
      st.s_cycles_stepped <- st.s_cycles_stepped + 1;
      (* step the live SMs; a sleeping SM's contribution is unchanged
         since its last step, so the aggregate already holds it *)
      let t = ref max_int in
      for i = 0 to nsms - 1 do
        let sm = sms.(i) in
        if sm.sm_wake <= now then step_sm sm ~now
        else st.s_sm_steps_skipped <- st.s_sm_steps_skipped + 1;
        if sm.sm_wake < !t then t := sm.sm_wake
      done;
      charge 1;
      if !t = max_int then begin
        if all_warps_done () then finished := true
        else
          fail
            "timing deadlock at cycle %d (barrier never satisfied or \
             dispatch starvation)"
            (deadlock_cycle now)
      end
      else begin
        (* a progressing SM wakes next cycle; otherwise the machine is
           dead until the earliest wake, and the cycles between are
           charged arithmetically *)
        let gap = !t - now - 1 in
        if gap > 0 then begin
          charge gap;
          st.s_cycles_skipped <- st.s_cycles_skipped + gap
        end;
        cycle := !t
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
