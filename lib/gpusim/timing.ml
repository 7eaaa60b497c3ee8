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

   - SM-local state.  Every eligibility condition is either warp-local
     latency ([ready_at]), a structural pipe
     ([lsu/smem/sfu/gmem_bw_free_at], [sched_free_at]) or an MSHR slot
     freed by a completion ([gmem_next_complete]), and all of those are
     SM-local: cross-SM coupling exists only through the block queues,
     which are only consulted when one of the SM's *own* blocks
     completes (which requires an issue).  Both the event-driven
     stepping and the SM classes below rest on this.
   - SM classes.  Each [sm] record stands for [members] SMs with
     contiguous indices in identical states; one step serves them all
     and charges every counter times [members].  With one traced block
     per kernel, SMs that receive the same blocks at the same cycle
     stay identical, so a multi-wave launch steps one class where the
     reference steps every SM.  Block dispatch, the only coupling, is
     kept exact by three rules.  (1) Uniform pop: under [Fifo], when
     the head kernel [k] replays one template and more than
     [members * cap k] of its blocks are queued ([cap k]: blocks of [k]
     an empty SM admits), every member pops the same blocks at every
     dispatch point of the step — a member pops at most [cap k] in one
     step, since what it pops stays resident until the step ends — so
     the representative pops and the queue drops the other members'
     copies; when no member can pop, nothing changes either.
     (2) Split: otherwise the class splits at the dispatch point (the
     end of an issue that finished a block — never a barrier release,
     whose releasing warp is still live): members 2.. become a clone
     that resumes right after the representative's step, at the same
     point.  (3) Re-merge: at the end of the cycle, adjacent groups that
     split from one class and logged the same dispatches are identical
     again and merge.  The initial fill dispatches each SM alone, in
     index order, and merges SMs that took the same blocks.
   - Per-class event-driven stepping.  Each class carries a [sm_wake]
     cycle below which it provably cannot issue and none of its
     counters' per-cycle contributions can change.  A sleeping class's
     stall classification and resident-warp count are therefore
     constant; they sit in a running aggregate over all SMs, which
     each visited cycle charges once and a globally-dead window charges
     arithmetically.
   - Scan-skip windows for every miss.  A scheduler scan that finds no
     eligible warp caches the least {!warp_bound} of its pool — the
     latency expiry of a waiting warp, the release of every pipe a
     structurally blocked warp needs, or "never" for a warp blocked on
     MSHRs — valid until that cycle or the next bump of [sm_gen]
     (barrier release, block dispatch, a drain while a window holds an
     MSHR-blocked warp).  A sleeping SM wakes at
     the least of its schedulers' bounds and its next memory
     completion, without rescanning its warps.
   - Temporal symmetry.  A Fifo grid of many waves settles into waves
     that repeat the last, shifted in time: when the machine state
     relative to the cycle recurs at a dispatching cycle, whole periods
     are added at once (see [recur] below).  The counterpart of SM
     classes, across time instead of across SMs.
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
     in the ledger of the request the run is for.  The counts describe
     the engine's own work, so they change whenever its internals do
     while every report stays identical. *)

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
    step-every-SM-every-cycle loop (steps count SM classes, not SMs),
    and how often warp records were recycled.  Collected per
    {!run_with_stats} call and added to the current ledger (a replay on
    a pool worker counts for the request that queued it).  They are
    engine internals, not
    results: a change to the engine may move them while every report
    stays bit-identical. *)
type engine_stats = {
  cycles_stepped : int;
      (** cycles the main loop actually visited (at least one SM live) *)
  cycles_skipped : int;
      (** globally-dead cycles charged arithmetically by skip-ahead *)
  sm_steps : int;
      (** SM-class step invocations (pools were scanned); one step
          serves every member of the class *)
  sm_steps_skipped : int;
      (** class-cycles on visited cycles served from the sleeping
          class's cached stall/residency contribution *)
  scan_skip_hits : int;
      (** scheduler steps answered by a cached scan-skip window
          (latency or structural miss) instead of a pool scan *)
  warp_allocs : int;  (** warp records freshly allocated *)
  warp_reuses : int;  (** warp records recycled from the free list *)
  periods_forwarded : int;
      (** whole periods of a repeating wave advanced without stepping *)
  cycles_forwarded : int;  (** the cycles those periods span *)
}

let counters_of fields =
  List.map (fun (name, field) -> (Ledger.counter "engine" name, field)) fields

(* the ledger's [engine] section, one counter per field: the counters a
   cached report carries, then those only a fresh replay adds *)
let cached_counters =
  counters_of
    [
      ("cycles_stepped", fun s -> s.cycles_stepped);
      ("cycles_skipped", fun s -> s.cycles_skipped);
      ("sm_steps", fun s -> s.sm_steps);
      ("sm_steps_skipped", fun s -> s.sm_steps_skipped);
      ("scan_skip_hits", fun s -> s.scan_skip_hits);
      ("warp_allocs", fun s -> s.warp_allocs);
      ("warp_reuses", fun s -> s.warp_reuses);
    ]

let engine_counters =
  cached_counters
  @ counters_of
      [
        ("periods_forwarded", fun s -> s.periods_forwarded);
        ("cycles_forwarded", fun s -> s.cycles_forwarded);
      ]

let add_counters counters (s : engine_stats) =
  List.iter (fun (c, field) -> Ledger.add c (field s)) counters

let note_stats = add_counters cached_counters

let engine_stats_of (l : Ledger.t) =
  match List.map (fun (c, _) -> Ledger.get l c) engine_counters with
  | [ cycles_stepped; cycles_skipped; sm_steps; sm_steps_skipped;
      scan_skip_hits; warp_allocs; warp_reuses; periods_forwarded;
      cycles_forwarded ] ->
      { cycles_stepped; cycles_skipped; sm_steps; sm_steps_skipped;
        scan_skip_hits; warp_allocs; warp_reuses; periods_forwarded;
        cycles_forwarded }
  | _ -> assert false

let pp_engine_stats ppf (s : engine_stats) =
  let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b in
  let cycles = s.cycles_stepped + s.cycles_skipped + s.cycles_forwarded in
  let sm_cycles = s.sm_steps + s.sm_steps_skipped in
  Fmt.pf ppf
    "cycles %d (%d stepped, %d skipped = %.1f%%, %d forwarded in %d periods \
     = %.1f%%); SM-steps %d (%d skipped = %.1f%%, %d scan-skip hits); warps \
     %d alloc + %d reused"
    cycles s.cycles_stepped s.cycles_skipped
    (pct s.cycles_skipped cycles)
    s.cycles_forwarded s.periods_forwarded
    (pct s.cycles_forwarded cycles)
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
  wt_id : int;  (** distinct per template of the run *)
}

type warp = {
  mutable w_kernel : int;  (** index into specs *)
  mutable w_block_uid : int;  (** unique block instance id (barrier scope) *)
  mutable w_threads : int;  (** live threads in this warp *)
  mutable w_tmpl : int;  (** its template's [wt_id] *)
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

(* One SM class: [members] SMs with contiguous indices whose states are
   identical, stepped once for all of them.  Every counter a step
   charges is multiplied by [members]. *)
type sm = {
  mutable members : int;
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
  sched_mshr : bool array;
      (** the window holds a warp blocked on MSHR capacity *)
  mutable sm_gen : int;
      (** bumped whenever eligibility can change other than by a warp's
          own latency or a pipe's release: barrier release, block
          dispatch, in-flight capacity freed by a drain while a window
          holds an MSHR-blocked warp *)
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
     schedulers per class and resident warps (constant while it sleeps);
     the aggregate holds it times [members] *)
  mutable c_idle : int;
  mutable c_sync : int;
  mutable c_mem : int;
  mutable c_other : int;
  mutable c_res : int;
  (* --- the step in progress --- *)
  mutable n_idle : int;  (** stalled schedulers per class so far *)
  mutable n_sync : int;
  mutable n_mem : int;
  mutable n_other : int;
  mutable uniform : bool;
      (** a dispatch point of this step found every member popping the
          same blocks (rule 1), which holds for the rest of the step *)
  mutable resume : int;
      (** on a class split off mid-step: the scheduler whose issue
          reached the dispatch point it resumes at; otherwise -1 *)
  mutable resume_released : bool;  (** [released_done] at the split *)
  (* --- re-merge --- *)
  mutable log : int array;
      (** this step's dispatches: -1 per dispatch point, then each
          popped block's template key *)
  mutable log_n : int;
  mutable split_cycle : int;  (** cycle of the last split it took part in *)
  mutable split_tag : int;  (** which class it split from then *)
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
    (* In-flight capacity freed: MSHR-blocked warps may clear.  That is
       all a drain changes that a window depends on, so only a window
       holding such a warp is dropped. *)
    let mshr = ref false in
    for s = 0 to Array.length sm.sched_mshr - 1 do
      if sm.sched_mshr.(s) && sm.sched_gen.(s) = sm.sm_gen then mshr := true
    done;
    if !mshr then sm.sm_gen <- sm.sm_gen + 1
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

(* One stream's queue: its kernels' blocks in submission order, as a
   cursor — block [next] of kernel [kernels.(ki)] is at the head. *)
type squeue = { kernels : int array; mutable ki : int; mutable next : int }

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
  mutable s_periods_forwarded : int;
  mutable s_cycles_forwarded : int;
}

(* One remembered dispatch point of the recurrence search: the machine
   state relative to its cycle, and the counters the period from it
   would advance. *)
type snapshot = {
  mutable r_hash : int;
  mutable r_cycle : int;
  mutable r_state : int array;
  mutable r_len : int;  (** -1: empty slot *)
  r_ctr : int array;
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
      s_periods_forwarded = 0;
      s_cycles_forwarded = 0;
    }
  in
  (* interned per-warp templates: one per (kernel, trace block, warp),
     shared by all block instances of that kernel *)
  let n_templates = ref 0 in
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
                  wt_id = (incr n_templates; !n_templates);
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
  (* stream queues, in stream order *)
  let queues =
    List.sort_uniq compare (List.map (fun s -> s.stream) specs)
    |> List.map (fun st ->
           let ks =
             List.filter
               (fun k -> specs_a.(k).stream = st && specs_a.(k).grid > 0)
               (List.init nk Fun.id)
           in
           { kernels = Array.of_list ks; ki = 0; next = 0 })
    |> Array.of_list
  in
  let nq = Array.length queues in
  let q_empty q = q.ki >= Array.length q.kernels in
  (* advance [q]'s cursor past [n] blocks of its head kernel *)
  let q_pop q n =
    let k = q.kernels.(q.ki) in
    q.next <- q.next + n;
    if q.next >= specs_a.(k).grid then begin
      q.ki <- q.ki + 1;
      q.next <- 0
    end
  in
  let nsched = arch.schedulers_per_sm in
  let new_sm () =
    {
      members = 1;
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
      sched_mshr = Array.make nsched false;
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
      n_idle = 0;
      n_sync = 0;
      n_mem = 0;
      n_other = 0;
      uniform = false;
      resume = -1;
      resume_released = false;
      log = Array.make 16 0;
      log_n = 0;
      split_cycle = -1;
      split_tag = 0;
    }
  in
  (* the SM classes in SM index order *)
  let classes = ref (Array.init arch.sms (fun _ -> new_sm ())) in
  let ncls = ref arch.sms in
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
  let dispatched = ref false in
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
  (* blocks of k an empty SM admits, by [fits]'s arithmetic *)
  let cap =
    Array.map
      (fun s ->
        let n = ref 0 in
        let regs = reg_granule s.regs * s.threads_per_block in
        while
          !n < arch.max_blocks_per_sm
          && (!n + 1) * s.threads_per_block <= arch.max_threads_per_sm
          && (!n + 1) * s.smem <= arch.smem_per_sm
          && (!n + 1) * regs <= arch.regs_per_sm
        do
          incr n
        done;
        !n)
      specs_a
  in
  (* kernels whose every block template stays resident once dispatched
     (some warp has work), and those of them with one template *)
  let resident =
    Array.map
      (Array.for_all (fun b -> Array.exists (fun wt -> wt.wt_len > 0) b))
      templates
  in
  let one_template =
    Array.mapi (fun k t -> resident.(k) && Array.length t = 1) templates
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
        w.w_tmpl <- wt.wt_id;
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
          w_tmpl = wt.wt_id;
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
  let log_push sm x =
    if sm.log_n = Array.length sm.log then begin
      let a = Array.make (2 * sm.log_n) 0 in
      Array.blit sm.log 0 a 0 sm.log_n;
      sm.log <- a
    end;
    sm.log.(sm.log_n) <- x;
    sm.log_n <- sm.log_n + 1
  in
  (* Dispatch block [b] of [k] on every member of [sm]'s class: the
     caller has popped one block per member. *)
  let dispatch_block sm k b ~cycle =
    let s = specs_a.(k) in
    let uid = !block_uid in
    incr block_uid;
    dispatched := true;
    live_blocks := !live_blocks + sm.members;
    let t = b mod Array.length templates.(k) in
    log_push sm ((k lsl 20) lor t);
    let tmpl = templates.(k).(t) in
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
      live_blocks := !live_blocks - sm.members;
      c.last_complete.(k) <- max c.last_complete.(k) cycle
    end
  in
  (* the Fifo head: the first non-empty queue, or -1 *)
  let fifo_head () =
    let i = ref 0 in
    while !i < nq && q_empty queues.(!i) do
      incr i
    done;
    if !i = nq then -1 else !i
  in
  let head_fits sm q = (not (q_empty q)) && fits sm q.kernels.(q.ki) in
  (* whether one member of [sm] would pop any block now *)
  let would_pop sm =
    match policy with
    | Fifo ->
        let h = fifo_head () in
        h >= 0 && head_fits sm queues.(h)
    | Leftover -> Array.exists (head_fits sm) queues
  in
  (* Rule 1: under Fifo, with one template for the head kernel [k] and
     more than [members * cap k] of its blocks queued, every member pops
     the same blocks at every dispatch point of this step (a member pops
     at most [cap k] blocks of [k] per step: what it pops stays
     resident until the step ends). *)
  let uniform_pop sm =
    (match policy with Fifo -> true | Leftover -> false)
    &&
    let h = fifo_head () in
    h >= 0
    &&
    let q = queues.(h) in
    let k = q.kernels.(q.ki) in
    one_template.(k) && specs_a.(k).grid - q.next > sm.members * cap.(k)
  in
  let try_dispatch sm ~cycle =
    match policy with
    | Leftover ->
        (* idealised backfill: try queues in stream order *)
        for i = 0 to nq - 1 do
          let q = queues.(i) in
          while head_fits sm q do
            let k = q.kernels.(q.ki) and b = q.next in
            q_pop q sm.members;
            dispatch_block sm k b ~cycle
          done
        done
    | Fifo ->
        (* global submission order with head-of-line blocking: only the
           first non-empty queue's head may dispatch *)
        let continue_ = ref true in
        while !continue_ do
          let h = fifo_head () in
          if h >= 0 && head_fits sm queues.(h) then begin
            let q = queues.(h) in
            let k = q.kernels.(q.ki) and b = q.next in
            q_pop q sm.members;
            dispatch_block sm k b ~cycle
          end
          else continue_ := false
        done
  in
  let copy_warp (w : warp) : warp =
    let x =
      alloc_warp
        {
          wt_codes = w.codes;
          wt_payloads = w.payloads;
          wt_facts = w.facts;
          wt_len = w.len;
          wt_threads = w.w_threads;
          wt_id = w.w_tmpl;
        }
        ~kernel:w.w_kernel ~uid:w.w_block_uid ~cycle:0
    in
    x.pc <- w.pc;
    x.ready_at <- w.ready_at;
    x.state <- w.state;
    x.last_was_mem <- w.last_was_mem;
    x.icount <- w.icount;
    Array.blit w.pend_ready 0 x.pend_ready 0 arch.load_slots;
    Array.blit w.pend_use 0 x.pend_use 0 arch.load_slots;
    x.pend_head <- w.pend_head;
    x.pend_n <- w.pend_n;
    x.spill_counter <- w.spill_counter;
    x.pending_spill <- w.pending_spill;
    x
  in
  (* an independent copy of [sm]'s state (warps, blocks, barriers, the
     step in progress) *)
  let clone sm =
    let copies = ref [] in
    let pools =
      Array.map
        (fun p ->
          let parr =
            Array.init p.pn (fun i ->
                let w = p.parr.(i) in
                let x = copy_warp w in
                copies := (w, x) :: !copies;
                x)
          in
          { parr; pn = p.pn; prr = p.prr })
        sm.pools
    in
    let barriers = Hashtbl.create 8 in
    Hashtbl.iter
      (fun key (arrived, waiters) ->
        Hashtbl.replace barriers key
          (arrived, List.map (fun w -> List.assq w !copies) waiters))
      sm.barriers;
    let copy_q q =
      {
        q with
        q_times = Array.copy q.q_times;
        q_counts = Array.copy q.q_counts;
      }
    in
    {
      sm with
      pools;
      blocks =
        List.map (fun b -> { b with b_warps_left = b.b_warps_left }) sm.blocks;
      sched_free_at = Array.copy sm.sched_free_at;
      sched_next_try = Array.copy sm.sched_next_try;
      sched_stall_class = Array.copy sm.sched_stall_class;
      sched_gen = Array.copy sm.sched_gen;
      sched_mshr = Array.copy sm.sched_mshr;
      q_gmem = copy_q sm.q_gmem;
      q_l1 = copy_q sm.q_l1;
      q_lmem = copy_q sm.q_lmem;
      barriers;
      log = Array.copy sm.log;
    }
  in
  (* set when a barrier release finished a waiter parked on its last
     instruction: that waiter may sit in another scheduler's pool *)
  let released_done = ref false in
  let split_seq = ref 0 and any_split = ref false in
  (* Rule 2: members 2.. of [sm]'s class split off as a clone that
     resumes, right after this step of [sm], at this dispatch point of
     scheduler [sched]'s issue; [sm] goes on as the first member alone. *)
  let split sm ~sched ~cycle =
    if sm.split_cycle <> cycle then begin
      incr split_seq;
      sm.split_cycle <- cycle;
      sm.split_tag <- !split_seq
    end;
    let x = clone sm in
    x.members <- sm.members - 1;
    x.resume <- sched;
    x.resume_released <- !released_done;
    sm.members <- 1;
    let a = !classes in
    let i = ref 0 in
    while a.(!i) != sm do
      incr i
    done;
    let a =
      if !ncls = Array.length a then begin
        let b = Array.make (2 * !ncls) sm in
        Array.blit a 0 b 0 !ncls;
        classes := b;
        b
      end
      else a
    in
    Array.blit a (!i + 1) a (!i + 2) (!ncls - !i - 1);
    a.(!i + 1) <- x;
    incr ncls;
    any_split := true
  in
  (* A dispatch point: [sm]'s class pops the blocks each member would,
     splitting first when members would pop differently. *)
  let dispatch sm ~sched ~cycle =
    if sm.members > 1 && (not sm.uniform) && would_pop sm then begin
      if uniform_pop sm then sm.uniform <- true else split sm ~sched ~cycle
    end;
    log_push sm (-1);
    try_dispatch sm ~cycle
  in
  let complete_block sm (bi : block_instance) ~sched ~cycle =
    let s = specs_a.(bi.b_kernel) in
    sm.blocks <- List.filter (fun b -> b != bi) sm.blocks;
    sm.regs_used <- sm.regs_used - (reg_granule s.regs * s.threads_per_block);
    sm.smem_used <- sm.smem_used - s.smem;
    sm.threads_used <- sm.threads_used - s.threads_per_block;
    live_blocks := !live_blocks - sm.members;
    c.last_complete.(bi.b_kernel) <- max c.last_complete.(bi.b_kernel) cycle;
    dispatch sm ~sched ~cycle
  in
  (* mark [w] finished; its block, with the warps it has left *)
  let retire sm (w : warp) =
    w.state <- st_done;
    let bi = List.find (fun b -> b.b_uid = w.w_block_uid) sm.blocks in
    bi.b_warps_left <- bi.b_warps_left - 1;
    bi
  in
  (* Rule 3: adjacent classes that split from one class at [cycle] and
     logged the same dispatches are in the same state again: merge
     them, handing the dropped copy's warp records to the free list. *)
  let merge_split ~cycle =
    let a = !classes in
    let i = ref 0 in
    while !i < !ncls - 1 do
      let x = a.(!i) and y = a.(!i + 1) in
      let same_log () =
        x.log_n = y.log_n
        &&
        let j = ref 0 in
        while !j < x.log_n && x.log.(!j) = y.log.(!j) do
          incr j
        done;
        !j = x.log_n
      in
      if
        x.split_cycle = cycle && y.split_cycle = cycle
        && x.split_tag = y.split_tag && same_log ()
      then begin
        x.members <- x.members + y.members;
        Array.iter
          (fun p ->
            for j = 0 to p.pn - 1 do
              free_warps := p.parr.(j) :: !free_warps
            done)
          y.pools;
        Array.blit a (!i + 2) a (!i + 1) (!ncls - !i - 2);
        decr ncls
      end
      else incr i
    done
  in
  (* initial fill: each SM alone in index order, then SMs that took the
     same blocks merge (every record starts split at cycle -1 from tag
     0, which no later cycle matches) *)
  for i = 0 to arch.sms - 1 do
    dispatch !classes.(i) ~sched:(-1) ~cycle:0
  done;
  merge_split ~cycle:(-1);
  dispatched := false;
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
    c.issued <- c.issued + sm.members;
    c.issued_per_kernel.(w.w_kernel) <-
      c.issued_per_kernel.(w.w_kernel) + sm.members;
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
            was its last instruction finishes here — never its block,
            whose releasing warp [w] is still live, so blocks complete
            (and dispatch points arise) only at the end of an issue *)
         List.iter
           (fun (x : warp) ->
             if x.pc >= x.len && x.pending_spill = 0 then begin
               let bi = retire sm x in
               assert (bi.b_warps_left > 0);
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
    if w.pc >= w.len && w.pending_spill = 0 && w.state <> st_barrier then begin
      let bi = retire sm w in
      if bi.b_warps_left = 0 then complete_block sm bi ~sched ~cycle:now
    end
  in
  (* after an issue that finished warps: compact the pools they sit in *)
  let compact_after_issue sm p =
    if !released_done then begin
      released_done := false;
      for s = 0 to nsched - 1 do
        pool_compact sm sm.pools.(s)
      done
    end
    else pool_compact sm p
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
      busy_slots := !busy_slots + sm.members;
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
      let next = ref max_int and mshr = ref false in
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
            if b = max_int then mshr := true;
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
        if !released_done || w.state = st_done then compact_after_issue sm p;
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
        sm.sched_mshr.(sched) <- !mshr;
        sm.sched_stall_class.(sched) <- cls;
        sm.sched_gen.(sched) <- sm.sm_gen;
        cls
      end
    end
  in
  (* Step a live class: drain, step every scheduler, swap its per-cycle
     contribution into the aggregate, and re-arm its wake.  A class that
     did not progress sleeps until the earliest of its schedulers'
     window bounds and its next memory completion: every scheduler
     missed (a busy issue port counts as progress), so its windows
     cover every warp, and only a drain can move its generation.  A
     class split off mid-step resumes where its representative split:
     the dispatch, the pool compaction, then the later schedulers. *)
  let step_sm sm ~now =
    st.s_sm_steps <- st.s_sm_steps + 1;
    let from = sm.resume + 1 in
    let progressed = ref (from > 0) and wake = ref max_int in
    if from > 0 then begin
      sm.resume <- -1;
      released_done := sm.resume_released;
      dispatch sm ~sched:(from - 1) ~cycle:now;
      compact_after_issue sm sm.pools.(from - 1)
    end
    else begin
      drain_gmem sm ~now;
      wake := sm.gmem_next_complete;
      sm.n_idle <- 0;
      sm.n_sync <- 0;
      sm.n_mem <- 0;
      sm.n_other <- 0;
      sm.uniform <- false;
      sm.log_n <- 0
    end;
    for sched = from to nsched - 1 do
      let r = step_scheduler sm sched ~now in
      if r < 0 then progressed := true
      else begin
        if r = 0 then sm.n_idle <- sm.n_idle + 1
        else if r = 1 then sm.n_sync <- sm.n_sync + 1
        else if r = 2 then sm.n_mem <- sm.n_mem + 1
        else sm.n_other <- sm.n_other + 1;
        let b = sm.sched_next_try.(sched) in
        if b < !wake then wake := b
      end
    done;
    let m = sm.members in
    c.a_idle <- c.a_idle + ((sm.n_idle - sm.c_idle) * m);
    c.a_sync <- c.a_sync + ((sm.n_sync - sm.c_sync) * m);
    c.a_mem <- c.a_mem + ((sm.n_mem - sm.c_mem) * m);
    c.a_other <- c.a_other + ((sm.n_other - sm.c_other) * m);
    c.a_res <- c.a_res + ((sm.resident - sm.c_res) * m);
    sm.c_idle <- sm.n_idle;
    sm.c_sync <- sm.n_sync;
    sm.c_mem <- sm.n_mem;
    sm.c_other <- sm.n_other;
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
  let all_warps_done () = !live_blocks = 0 && Array.for_all q_empty queues in
  let max_cycles = 2_000_000_000 in
  (* Temporal symmetry.  At the end of a cycle that dispatched, while
     the Fifo head kernel's block templates all have work, the machine
     state relative to [now] is written to [dbuf]: the head queue, its
     kernel and the template its next block replays (not the cursor);
     per class its members, blocks, pools, round-robin cursors, pipes
     and issue ports (a time at or before [now] reads as 0: every use
     takes [imax now]), MSHR count, completion queues, barrier table
     and per-cycle contribution; per warp its template, block, pc,
     ready time, state, scoreboard ring and spill counters.  Block uids
     are written relative to the next uid.  Cached windows, [sm_gen]
     and wakes are left out: they only decide when a class is stepped,
     never what a step finds.

     When the state recurs from a remembered dispatch point [p] cycles
     back, the run from it repeats the run from there shifted by [p] as
     long as every dispatch point pops as it did: the queue is the
     only input the state leaves out.  Whole periods are then added at
     once: each adds the period's counter deltas, and every absolute
     time moves by [p]. *)
  let dbuf = ref (Array.make 256 0) and dlen = ref 0 in
  let emit x =
    if !dlen = Array.length !dbuf then begin
      let a = Array.make (2 * !dlen) 0 in
      Array.blit !dbuf 0 a 0 !dlen;
      dbuf := a
    end;
    !dbuf.(!dlen) <- x;
    incr dlen
  in
  let since now x = if x > now then x - now else 0 in
  let digest_state h ~now =
    dlen := 0;
    let q = queues.(h) in
    emit h;
    emit q.ki;
    (* the template the next block replays *)
    emit (q.next mod Array.length templates.(q.kernels.(q.ki)));
    emit !ncls;
    for i = 0 to !ncls - 1 do
      let sm = !classes.(i) in
      emit sm.members;
      emit sm.resident;
      emit (sm.warp_seq mod nsched);
      emit sm.regs_used;
      emit sm.smem_used;
      emit sm.threads_used;
      emit sm.c_idle;
      emit sm.c_sync;
      emit sm.c_mem;
      emit sm.c_other;
      emit sm.c_res;
      emit (since now sm.lsu_free_at);
      emit (since now sm.smem_free_at);
      emit (since now sm.sfu_free_at);
      emit (since now sm.gmem_bw_free_at);
      Array.iter (fun x -> emit (since now x)) sm.sched_free_at;
      emit sm.gmem_inflight;
      List.iter
        (fun q ->
          emit q.q_n;
          for j = 0 to q.q_n - 1 do
            let j = (q.q_head + j) land (Array.length q.q_times - 1) in
            emit (q.q_times.(j) - now);
            emit q.q_counts.(j)
          done)
        [ sm.q_gmem; sm.q_l1; sm.q_lmem ];
      emit (List.length sm.blocks);
      List.iter
        (fun b ->
          emit (b.b_uid - !block_uid);
          emit b.b_kernel;
          emit b.b_warps_left)
        sm.blocks;
      Array.iter
        (fun p ->
          emit p.pn;
          emit p.prr;
          for j = 0 to p.pn - 1 do
            let w = p.parr.(j) in
            emit w.w_tmpl;
            emit (w.w_block_uid - !block_uid);
            emit w.pc;
            emit (w.ready_at - now);
            emit w.state;
            emit (Bool.to_int w.last_was_mem);
            emit w.icount;
            emit w.pend_n;
            for e = 0 to w.pend_n - 1 do
              let e = (w.pend_head + e) mod Array.length w.pend_ready in
              emit (w.pend_ready.(e) - now);
              emit (w.pend_use.(e) - w.icount)
            done;
            emit w.spill_counter;
            emit w.pending_spill
          done)
        sm.pools;
      (* the table's order is its hashing's: sort it *)
      Hashtbl.fold
        (fun (uid, id) (arrived, waiters) acc ->
          (uid - !block_uid, id, arrived, List.length waiters) :: acc)
        sm.barriers []
      |> List.sort compare
      |> List.iter (fun (uid, id, arrived, n) ->
             emit uid;
             emit id;
             emit arrived;
             emit n)
    done;
    let x = ref 0 in
    for j = 0 to !dlen - 1 do
      x := (!x * 0x100000001b3) lxor !dbuf.(j)
    done;
    !x
  in
  (* the counters a period advances: issue and slot counts, block uids,
     the head queue's cursor, then per kernel its issued count and last
     completion *)
  let n_ctr = 9 + (2 * nk) in
  let read_counters h (a : int array) =
    a.(0) <- c.issued;
    a.(1) <- c.mem_stall;
    a.(2) <- c.sync_stall;
    a.(3) <- c.other_stall;
    a.(4) <- c.idle;
    a.(5) <- c.resident_warp_cycles;
    a.(6) <- !busy_slots;
    a.(7) <- !block_uid;
    a.(8) <- queues.(h).next;
    Array.blit c.issued_per_kernel 0 a 9 nk;
    Array.blit c.last_complete 0 a (9 + nk) nk
  in
  let ctr = Array.make n_ctr 0 in
  (* advance [k] periods of [p] cycles whose counters moved from [before]
     to [ctr]: [k * p] cycles *)
  let forward h ~k ~p (before : int array) =
    let d = k * p in
    let step i = k * (ctr.(i) - before.(i)) in
    c.issued <- c.issued + step 0;
    c.mem_stall <- c.mem_stall + step 1;
    c.sync_stall <- c.sync_stall + step 2;
    c.other_stall <- c.other_stall + step 3;
    c.idle <- c.idle + step 4;
    c.resident_warp_cycles <- c.resident_warp_cycles + step 5;
    busy_slots := !busy_slots + step 6;
    block_uid := !block_uid + step 7;
    queues.(h).next <- queues.(h).next + step 8;
    for x = 0 to nk - 1 do
      c.issued_per_kernel.(x) <- c.issued_per_kernel.(x) + step (9 + x);
      if ctr.(9 + nk + x) <> before.(9 + nk + x) then
        c.last_complete.(x) <- c.last_complete.(x) + d
    done;
    let shift x = if x = max_int then x else x + d in
    for i = 0 to !ncls - 1 do
      let sm = !classes.(i) in
      sm.lsu_free_at <- sm.lsu_free_at + d;
      sm.smem_free_at <- sm.smem_free_at + d;
      sm.sfu_free_at <- sm.sfu_free_at + d;
      sm.gmem_bw_free_at <- sm.gmem_bw_free_at + d;
      Array.iteri (fun s x -> sm.sched_free_at.(s) <- x + d) sm.sched_free_at;
      List.iter
        (fun q ->
          for j = 0 to q.q_n - 1 do
            let j = (q.q_head + j) land (Array.length q.q_times - 1) in
            q.q_times.(j) <- q.q_times.(j) + d
          done)
        [ sm.q_gmem; sm.q_l1; sm.q_lmem ];
      sm.gmem_next_complete <- shift sm.gmem_next_complete;
      sm.sm_wake <- shift sm.sm_wake;
      (* every scheduler window is dropped *)
      sm.sm_gen <- sm.sm_gen + 1;
      Array.iter
        (fun p ->
          for j = 0 to p.pn - 1 do
            let w = p.parr.(j) in
            w.ready_at <- w.ready_at + d;
            Array.iteri (fun e x -> w.pend_ready.(e) <- x + d) w.pend_ready
          done)
        sm.pools
    done;
    st.s_periods_forwarded <- st.s_periods_forwarded + k;
    st.s_cycles_forwarded <- st.s_cycles_forwarded + d
  in
  (* the last dispatch points, newest at [ring_pos - 1]: in cold fig9
     every recurrence lies within 14 of them *)
  let ring_size = 16 in
  let ring =
    Array.init ring_size (fun _ ->
        { r_hash = 0; r_cycle = 0; r_state = [||]; r_len = -1;
          r_ctr = Array.make n_ctr 0 })
  in
  let ring_pos = ref 0 in
  let same_state r =
    r.r_len = !dlen
    &&
    let j = ref 0 in
    while !j < !dlen && r.r_state.(!j) = !dbuf.(!j) do
      incr j
    done;
    !j = !dlen
  in
  (* The end of a cycle that dispatched: remember the state, or advance
     the whole periods it repeats; returns the cycles advanced. *)
  let recur ~now =
    match policy with
    | Leftover -> 0
    | Fifo ->
        let h = fifo_head () in
        if h < 0 then 0
        else begin
          let q = queues.(h) in
          let k = q.kernels.(q.ki) in
          if not resident.(k) then 0
          else begin
            let hash = digest_state h ~now in
            read_counters h ctr;
            let found = ref (-1) and i = ref 1 in
            while !found < 0 && !i <= ring_size do
              let r = ring.((!ring_pos - !i + ring_size) mod ring_size) in
              if r.r_len >= 0 && r.r_hash = hash && same_state r then
                found := (!ring_pos - !i + ring_size) mod ring_size;
              incr i
            done;
            if !found >= 0 then begin
              let r = ring.(!found) in
              let p = now - r.r_cycle and b = ctr.(8) - r.r_ctr.(8) in
              (* The period's dispatch points saw between [queued] and
                 [queued + b] blocks queued; a skipped one sees [b] fewer
                 per period.  Rule 1 asks a class of [m > 1] members for
                 more than [m * cap k]: every answer stays the same while
                 no such threshold below [queued + b] is reached, and
                 every pop while a block of [k] stays queued. *)
              let queued = specs_a.(k).grid - q.next in
              let floor = ref 0 in
              if one_template.(k) then
                for m = 2 to arch.sms do
                  if m * cap.(k) < queued + b then floor := m * cap.(k)
                done;
              let periods =
                (* a period pops whole rounds of the templates *)
                if b mod Array.length templates.(k) <> 0 then 0
                else min ((queued - !floor - 1) / b) ((max_cycles - now) / p)
              in
              if periods <= 0 then 0
              else begin
                forward h ~k:periods ~p r.r_ctr;
                Array.iter (fun r -> r.r_len <- -1) ring;
                periods * p
              end
            end
            else begin
              let r = ring.(!ring_pos) in
              ring_pos := (!ring_pos + 1) mod ring_size;
              if Array.length r.r_state < !dlen then
                r.r_state <- Array.make !dlen 0;
              Array.blit !dbuf 0 r.r_state 0 !dlen;
              r.r_len <- !dlen;
              r.r_hash <- hash;
              r.r_cycle <- now;
              Array.blit ctr 0 r.r_ctr 0 n_ctr;
              0
            end
          end
        end
  in
  (* The reference loop also wakes at pipe releases and issue-port
     completions nobody waits on, so it sees a deadlock only after the
     last of them: report that cycle, as it does. *)
  let deadlock_cycle now =
    let t = ref now in
    let upd x = if x > !t then t := x in
    for i = 0 to !ncls - 1 do
      let sm = !classes.(i) in
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
        sm.pools
    done;
    !t
  in
  let cycle = ref 0 in
  let finished = ref false in
  while not !finished do
    if all_warps_done () then finished := true
    else begin
      let now = !cycle in
      if now > max_cycles then fail "timing simulation exceeded cycle budget";
      st.s_cycles_stepped <- st.s_cycles_stepped + 1;
      (* step the live classes (a split inserts its clone right after
         the class being stepped, which this loop then resumes); a
         sleeping class's contribution is unchanged since its last
         step, so the aggregate already holds it *)
      let t = ref max_int in
      let i = ref 0 in
      while !i < !ncls do
        let sm = !classes.(!i) in
        if sm.sm_wake <= now then step_sm sm ~now
        else st.s_sm_steps_skipped <- st.s_sm_steps_skipped + 1;
        if sm.sm_wake < !t then t := sm.sm_wake;
        incr i
      done;
      if !any_split then begin
        any_split := false;
        merge_split ~cycle:now
      end;
      charge 1;
      if !dispatched then begin
        dispatched := false;
        let d = recur ~now in
        if d > 0 then begin
          cycle := now + d;
          if !t < max_int then t := !t + d
        end
      end;
      let now = !cycle in
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
      periods_forwarded = st.s_periods_forwarded;
      cycles_forwarded = st.s_cycles_forwarded;
    }
  in
  add_counters engine_counters stats;
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
