(* Drives the four execution modes of the evaluation — native (parallel
   streams), vertically fused, horizontally fused (searched), and the
   Naive even-partition variant — through the simulator, with a
   two-tier trace store so ratio sweeps don't re-interpret unchanged
   kernels (and warm reruns don't re-interpret anything at all).

   Profiling launches execute only the traced blocks ([exec_blocks]):
   the timing model replays block traces cyclically over the full grid,
   so functional execution of every block matters only for the
   correctness checks, which use [validate_*] with fresh memory.

   Every trace is recorded in a canonical environment: a fresh
   [Memory.t] holding only the keyed workload, instantiated in key
   order.  The interpreter's trace payloads are coalescing analysis
   results over distinct (buffer, sector) pairs — not addresses — and
   buffer-id renaming is order-isomorphic for both the coalescer and
   the L1 sector FIFO, so these recordings are byte-identical to the
   old in-search ones while being pure functions of their key.  That
   purity buys two things: recordings parallelize (each task owns its
   memory), and they persist ({!Trace_store}'s disk tier).

   The Fig. 6 search runs as a two-phase engine.  Phase 1 is serial
   enumeration/verification ([Search.search]); the batch evaluator
   then resolves candidate times from the journal/cache/memo tiers,
   records the missing traces concurrently (deduped per distinct
   trace key — N register-bound variants of one partition share one
   recording), and fans the pure [Timing.run] replays out over an
   OCaml 5 domain pool ([Hfuse_parallel.Pool]) with a persistent
   on-disk cache ({!Profile_cache}) keyed by content.  Results are
   bit-identical to the serial path for any worker count and any
   cache temperature. *)

open Gpusim
open Kernel_corpus
module Fault = Hfuse_fault.Fault

(* Every profiling function below takes [~settings] (traced blocks,
   fuel, trace-memory bound, cache root, chaos plan) and reads its
   knobs from there, never from a process default. *)

(** A corpus kernel bound to a workload instance in some memory. *)
type configured = {
  spec : Spec.t;
  size : int;
  info : Hfuse_core.Kernel_info.t;  (** at native block dimensions *)
  inst : Workload.instance;
}

let configure (mem : Memory.t) (spec : Spec.t) ~(size : int) : configured =
  let inst = spec.instantiate mem ~size in
  let info = Spec.kernel_info spec inst in
  { spec; size; info; inst }

(* ------------------------------------------------------------------ *)
(* The canonical environment                                            *)
(* ------------------------------------------------------------------ *)

(* A fresh memory holding only [cs]' workloads, re-instantiated in
   order.  Every trace recording and soundness gate runs here (see the
   header comment). *)
let fresh (cs : configured list) : Memory.t * configured list =
  let mem = Memory.create () in
  ( mem,
    List.map (fun c -> { c with inst = c.spec.instantiate mem ~size:c.size }) cs
  )

(* One launch under the settings' chaos plan and fuel: [~traced:true]
   executes and records only the traced blocks (profiling mode),
   [~traced:false] runs the whole grid untraced. *)
let launch ~(s : Settings.t) ~(traced : bool) (mem : Memory.t)
    (info : Hfuse_core.Kernel_info.t) (cs : configured list) : Launch.result =
  let tb = if traced then s.Settings.trace_blocks else 0 in
  Launch.launch_info
    ?exec_blocks:(if traced then Some tb else None)
    ?fault:s.Settings.fault ~loop_fuel:s.Settings.sim_fuel mem info
    ~args:(List.concat_map (fun c -> c.inst.Workload.args) cs)
    ~trace_blocks:tb

(* The traces of [info] launched over [cs]' workloads in a fresh
   memory: a pure function of its inputs, safe on any domain. *)
let record ~(s : Settings.t) (cs : configured list)
    (info : Hfuse_core.Kernel_info.t) : Trace.block array =
  let mem, cs = fresh cs in
  (launch ~s ~traced:true mem info cs).block_traces

(* ------------------------------------------------------------------ *)
(* Trace store                                                          *)
(* ------------------------------------------------------------------ *)

(** Trace key: kernel identity, workload size(s) and block
    dimension(s) — exactly what a dynamic trace depends on (inputs are
    seed-deterministic).  Structured, not packed: the old encoding
    folded both sizes of a pair into [size1 * 1_000_003 + size2], which
    collides for distinct size pairs (e.g. (2, 1) and (1, 1_000_004))
    and silently returned a stale trace. *)
type trace_key =
  | K_solo of { kernel : string; size : int; block_dim : int; tb : int }
  | K_hfuse of {
      k1 : string;
      size1 : int;
      k2 : string;
      size2 : int;
      d1 : int;
      d2 : int;
      tb : int;
    }
  | K_vfuse of {
      k1 : string;
      size1 : int;
      k2 : string;
      size2 : int;
      block : int;
      tb : int;
    }

(* Traces themselves live in {!Trace_store}: a process-wide in-memory
   LRU (shared by every request, bounded by [Settings.trace_mem_mb])
   over a persistent on-disk tier under the profile-cache root.  The
   store's digests fold in everything the keys above name plus the
   simulation fuel, the kernel source (names alone would go stale when
   a kernel's source changes under a persistent directory), and — on
   disk only — the arch.  This mutex guards the report/time memos
   below. *)
let cache_mutex = Mutex.create ()

let locked (f : unit -> 'a) : 'a =
  Mutex.lock cache_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_mutex) f

(* In-memory candidate-report memo, content-keyed exactly like the
   persistent report cache (specs + packed traces + arch), shared by
   every request in the process: the daemon's warm profile cache.
   Hits are bit-identical to replays — the simulator is deterministic
   and entries keep every report field. *)
let report_memo : (string, Timing.report * Timing.engine_stats) Hashtbl.t =
  Hashtbl.create 256

(* Same idea for the search's per-candidate times (the persistent
   cache's time entries, keyed by [candidate_key]): a daemon answering
   the same search twice replays nothing the second time. *)
let time_memo : (string, float) Hashtbl.t = Hashtbl.create 256

(* One tier a profiled value can come from: checkpoint journal,
   persistent cache or process-wide memo. *)
type 'v tier = {
  find : key:string -> 'v option;
  add : key:string -> 'v -> unit;
}

type 'v tiers = { journal : 'v tier; cache : 'v tier; memo : 'v tier }

let memo_tier (tbl : (string, 'v) Hashtbl.t) : 'v tier =
  {
    find = (fun ~key -> locked (fun () -> Hashtbl.find_opt tbl key));
    add = (fun ~key v -> locked (fun () -> Hashtbl.replace tbl key v));
  }

let report_tiers ~cache ~checkpoint =
  {
    journal =
      {
        find = Checkpoint.find_report checkpoint;
        add = Checkpoint.record_report checkpoint;
      };
    cache =
      {
        find = Profile_cache.find_report cache;
        add = Profile_cache.store_report cache;
      };
    memo = memo_tier report_memo;
  }

let time_tiers ~cache ~checkpoint =
  {
    journal =
      {
        find = Checkpoint.find_time checkpoint;
        add = Checkpoint.record_time checkpoint;
      };
    cache =
      { find = Profile_cache.find cache; add = Profile_cache.store cache };
    memo = memo_tier time_memo;
  }

(* The one place that knows the resolution order: the checkpoint
   journal first (a resumed run replays the interrupted run's answers),
   then the persistent cache (hits are journaled so the resume no
   longer depends on the cache file), then the process-wide memo (a
   long-lived daemon's earlier requests; hits backfill the cache and
   the journal).  The memo comes last so that one-shot runs see the
   same cache hit/store counters with or without it. *)
let resolve (t : 'v tiers) (key : string) : 'v option =
  match t.journal.find ~key with
  | Some _ as hit -> hit
  | None -> (
      match t.cache.find ~key with
      | Some v ->
          t.journal.add ~key v;
          t.memo.add ~key v;
          Some v
      | None -> (
          match t.memo.find ~key with
          | Some v ->
              t.cache.add ~key v;
              t.journal.add ~key v;
              Some v
          | None -> None))

(* a freshly computed value lands in every tier *)
let commit (t : 'v tiers) (key : string) (v : 'v) : unit =
  t.memo.add ~key v;
  t.cache.add ~key v;
  t.journal.add ~key v

let clear_cache () =
  Trace_store.clear_memory ();
  locked @@ fun () ->
  Hashtbl.reset report_memo;
  Hashtbl.reset time_memo

(* Replay entries are content-keyed over the specs and their packed
   traces, so any input change misses. *)
let report_key (arch : Arch.t) (specs : Timing.launch_spec list) : string =
  Profile_cache.report_key ~arch:arch.Arch.name ~policy:"fifo" specs

(* A report answered by the tiers folds the producing replay's engine
   stats into the process-wide counters, so cumulative stats still
   describe the work behind the reported numbers. *)
let lookup_report (t : (Timing.report * Timing.engine_stats) tiers)
    (key : string) : Timing.report option =
  Option.map
    (fun (r, es) ->
      Timing.accumulate_stats es;
      r)
    (resolve t key)

(* One replay through the report tiers: answered by [lookup_report], or
   run on this domain and committed to every tier. *)
let replay ~cache ~checkpoint (arch : Arch.t)
    (specs : Timing.launch_spec list) : Timing.report =
  let tiers = report_tiers ~cache ~checkpoint in
  let key = report_key arch specs in
  match lookup_report tiers key with
  | Some r -> r
  | None ->
      let ((r, _) as entry) = Timing.run_with_stats arch specs in
      commit tiers key entry;
      r

(* render a trace key into the store's digest input *)
let trace_ident (key : trace_key) : string list =
  match key with
  | K_solo { kernel; size; block_dim; tb } ->
      [ "solo"; kernel; string_of_int size; string_of_int block_dim;
        string_of_int tb ]
  | K_hfuse { k1; size1; k2; size2; d1; d2; tb } ->
      [ "hfuse"; k1; string_of_int size1; k2; string_of_int size2;
        string_of_int d1; string_of_int d2; string_of_int tb ]
  | K_vfuse { k1; size1; k2; size2; block; tb } ->
      [ "vfuse"; k1; string_of_int size1; k2; string_of_int size2;
        string_of_int block; string_of_int tb ]

let store_key ~(s : Settings.t) ~(arch : string) ~(source : string)
    (key : trace_key) : Trace_store.key =
  Trace_store.keys ~arch ~sim_fuel:s.Settings.sim_fuel
    ~trace_blocks:s.Settings.trace_blocks
    ~ident:(trace_ident key @ [ Digest.to_hex (Digest.string source) ])

let traced ~(s : Settings.t) ~(arch : string) ~(source : string)
    (key : trace_key) (record : unit -> Trace.block array) :
    Trace.block array =
  Trace_store.get_or_record (Settings.trace_store s)
    ?limit_bytes:(Settings.trace_limit_bytes s)
    ~key:(store_key ~s ~arch ~source key)
    (fun () ->
      (* every trace-recording launch is an injection point for the
         chaos harness's sim_hang; injected faults are transient, so
         the retry wrapper keeps them out of callers *)
      Fault.with_retries ~key:(Hashtbl.hash key) record)

(** Traces of [c] at block dimension [d] (defaults to native).
    [arch] scopes only the persistent entry (traces themselves are
    arch-independent). *)
let traces_of ~settings:(s : Settings.t) ?(arch = "-") (c : configured)
    ?(block_dim : int option) () : Trace.block array =
  let d =
    match block_dim with
    | None -> Hfuse_core.Kernel_info.threads_per_block c.info
    | Some d -> d
  in
  let tb = s.Settings.trace_blocks in
  traced ~s ~arch ~source:c.spec.source
    (K_solo { kernel = c.spec.name; size = c.size; block_dim = d; tb })
    (fun () ->
      record ~s [ c ] (Hfuse_core.Kernel_info.with_block_dim c.info d))

(* ------------------------------------------------------------------ *)
(* Timing-spec constructors                                             *)
(* ------------------------------------------------------------------ *)

let static_smem (info : Hfuse_core.Kernel_info.t) : int =
  Launch.static_shared_bytes info.fn.f_body

let spec_of ~settings ?arch (c : configured) ?(block_dim : int option)
    ~(stream : int) () : Timing.launch_spec =
  let d =
    match block_dim with
    | None -> Hfuse_core.Kernel_info.threads_per_block c.info
    | Some d -> d
  in
  {
    Timing.label = c.spec.name;
    block_traces = traces_of ~settings ?arch c ~block_dim:d ();
    grid = c.inst.grid;
    threads_per_block = d;
    regs = c.spec.regs;
    spill = 0;
    smem = static_smem c.info + c.inst.smem_dynamic;
    stream;
  }

(** Native baseline: both kernels submitted via parallel streams,
    replayed through the report tiers. *)
let native ~settings ?cache ?(checkpoint = Checkpoint.disabled)
    (arch : Arch.t) (c1 : configured) (c2 : configured) : Timing.report =
  let cache =
    match cache with Some c -> c | None -> Settings.cache settings
  in
  replay ~cache ~checkpoint arch
    [
      spec_of ~settings ~arch:arch.Arch.name c1 ~stream:0 ();
      spec_of ~settings ~arch:arch.Arch.name c2 ~stream:1 ();
    ]

(** One kernel alone (Fig. 8 metrics; also the ratio probes). *)
let solo ~settings (arch : Arch.t) (c : configured) : Timing.report =
  Timing.run arch [ spec_of ~settings ~arch:arch.Arch.name c ~stream:0 () ]

(* ------------------------------------------------------------------ *)
(* Fused runs                                                           *)
(* ------------------------------------------------------------------ *)

let hfuse_key ~(tb : int) (c1 : configured) (c2 : configured)
    (f : Hfuse_core.Hfuse.t) : trace_key =
  K_hfuse
    {
      k1 = c1.spec.name;
      size1 = c1.size;
      k2 = c2.spec.name;
      size2 = c2.size;
      d1 = f.d1;
      d2 = f.d2;
      tb;
    }

(** Traces of the horizontally fused kernel (recorded on first use;
    stored).  [arch] scopes only the persistent entry. *)
let hfuse_traces ~settings:(s : Settings.t) ?(arch = "-") (c1 : configured)
    (c2 : configured) (f : Hfuse_core.Hfuse.t) : Trace.block array =
  traced ~s ~arch
    ~source:(Hfuse_core.Hfuse.to_source f)
    (hfuse_key ~tb:s.Settings.trace_blocks c1 c2 f)
    (fun () -> record ~s [ c1; c2 ] (Hfuse_core.Hfuse.info f))

(** Launch spec for a fused candidate over already-recorded traces.
    Pure — safe to build and [Timing.run] on any domain. *)
let hfuse_spec (f : Hfuse_core.Hfuse.t) ~(reg_bound : int option)
    ~(traces : Trace.block array) : Timing.launch_spec =
  let finfo = Hfuse_core.Hfuse.info f in
  let regs, spill =
    match reg_bound with
    | Some r when r < f.regs -> (r, f.regs - r)
    | _ -> (f.regs, 0)
  in
  {
    Timing.label = f.fn.f_name;
    block_traces = traces;
    grid = f.grid;
    threads_per_block = f.d1 + f.d2;
    regs;
    spill;
    smem = static_smem finfo + f.smem_dynamic;
    stream = 0;
  }

(** Interpret a horizontally fused kernel (profiling mode) and time it
    under an optional register bound. *)
let hfuse_report ~settings (arch : Arch.t) (c1 : configured)
    (c2 : configured) (f : Hfuse_core.Hfuse.t) ~(reg_bound : int option) :
    Timing.report =
  let traces = hfuse_traces ~settings ~arch:arch.Arch.name c1 c2 f in
  Timing.run arch [ hfuse_spec f ~reg_bound ~traces ]

(** Vertically fused baseline.  Both kernels run at the larger of the
    two native block dimensions (tunable kernels adapt; a fixed smaller
    kernel is guarded, which {!Hfuse_core.Vfuse} checks is legal). *)
let vfuse_block_dim (c1 : configured) (c2 : configured) : int =
  let d1 = Hfuse_core.Kernel_info.threads_per_block c1.info in
  let d2 = Hfuse_core.Kernel_info.threads_per_block c2.info in
  max d1 d2

let vfuse_generate (c1 : configured) (c2 : configured) : Hfuse_core.Vfuse.t =
  let d = vfuse_block_dim c1 c2 in
  let adapt (c : configured) =
    match c.info.tunability with
    | Hfuse_core.Kernel_info.Tunable _ ->
        Hfuse_core.Kernel_info.with_block_dim c.info d
    | Hfuse_core.Kernel_info.Fixed -> c.info
  in
  Hfuse_core.Vfuse.generate (adapt c1) (adapt c2)

(** Launch spec for the vertical baseline (records the fused kernel's
    traces in a fresh memory on first use; stored). *)
let vfuse_spec ~settings:(s : Settings.t) ?(arch = "-") (c1 : configured)
    (c2 : configured) (v : Hfuse_core.Vfuse.t) : Timing.launch_spec =
  let vinfo = Hfuse_core.Vfuse.info v in
  let tb = s.Settings.trace_blocks in
  let traces =
    traced ~s ~arch
      ~source:(Hfuse_core.Vfuse.to_source v)
      (K_vfuse
         {
           k1 = c1.spec.name;
           size1 = c1.size;
           k2 = c2.spec.name;
           size2 = c2.size;
           block = v.block;
           tb;
         })
      (fun () -> record ~s [ c1; c2 ] vinfo)
  in
  {
    Timing.label = v.fn.f_name;
    block_traces = traces;
    grid = v.grid;
    threads_per_block = v.block;
    regs = v.regs;
    spill = 0;
    smem = static_smem vinfo + v.smem_dynamic;
    stream = 0;
  }

(* ------------------------------------------------------------------ *)
(* The Fig. 6 search, driven by the simulator                           *)
(* ------------------------------------------------------------------ *)

(** Fused block dimension target: the paper fuses to 1024 threads when
    both kernels are tunable; fixed kernels dictate their own sum. *)
let d0_for (c1 : configured) (c2 : configured) : int =
  match (c1.info.tunability, c2.info.tunability) with
  | Hfuse_core.Kernel_info.Fixed, Hfuse_core.Kernel_info.Fixed ->
      Hfuse_core.Kernel_info.threads_per_block c1.info
      + Hfuse_core.Kernel_info.threads_per_block c2.info
  | _ -> 1024

(** Cumulative observability counters for the profiling search. *)
type search_stats = {
  mutable profiled : int;  (** candidates timed on the simulator *)
  mutable cache_hits : int;  (** candidates answered by the disk cache *)
  mutable profile_wall_s : float;  (** wall time inside batch profiling *)
  mutable failed : int;  (** candidates whose profile failed (excluded) *)
  mutable ranked : int;  (** candidates scored by the cost model *)
  mutable pruned : int;  (** candidates top-K pruning skipped *)
  mutable rank_agree : int;
      (** searches where the model's pick tied the simulated best *)
  mutable rank_total : int;  (** searches with a model-vs-sim verdict *)
  mutable max_regret_pct : float;
      (** worst chosen-vs-best simulated-time gap, percent *)
  mutable traced : int;  (** distinct trace keys freshly recorded *)
  mutable trace_hits : int;
      (** distinct trace keys answered by the store (memory or disk) *)
  mutable trace_merged : int;
      (** candidate trace needs deduped onto an already-requested key *)
  mutable trace_wall_s : float;  (** wall time inside trace acquisition *)
  mutable repair_attempted : int;
      (** rejected partitions handed to the repair engine *)
  mutable repaired : int;
      (** partitions repaired, oracle-gated and admitted to profiling *)
  mutable repair_unsound : int;
      (** statically clean repairs the differential oracle refuted
          (failed closed back to rejection) *)
  mutable rejections : (string * int) list;
      (** per-{!Hfuse_analysis.Diag.kind_tag} histogram of the error
          diagnostics on finally-rejected partitions, sorted by tag *)
}

let fresh_search_stats () : search_stats =
  {
    profiled = 0;
    cache_hits = 0;
    profile_wall_s = 0.0;
    failed = 0;
    ranked = 0;
    pruned = 0;
    rank_agree = 0;
    rank_total = 0;
    max_regret_pct = 0.0;
    traced = 0;
    trace_hits = 0;
    trace_merged = 0;
    trace_wall_s = 0.0;
    repair_attempted = 0;
    repaired = 0;
    repair_unsound = 0;
    rejections = [];
  }

(** Count each error diagnostic's kind into the [rejections]
    histogram (kept sorted by tag for deterministic reports). *)
let count_rejections (st : search_stats) (ds : Hfuse_analysis.Diag.t list) :
    unit =
  let bump hist tag =
    let rec go = function
      | [] -> [ (tag, 1) ]
      | (t, n) :: rest when String.equal t tag -> (t, n + 1) :: rest
      | kv :: rest -> kv :: go rest
    in
    go hist
  in
  let hist =
    List.fold_left
      (fun hist (d : Hfuse_analysis.Diag.t) ->
        bump hist (Hfuse_analysis.Diag.kind_tag d.kind))
      st.rejections
      (Hfuse_analysis.Diag.errors ds)
  in
  st.rejections <-
    List.sort (fun (a, _) (b, _) -> String.compare a b) hist

(* the process-wide accumulator the one-shot CLIs print; a server
   passes each request its own [fresh_search_stats ()] via [?stats] *)
let global_stats = ref (fresh_search_stats ())

(* a copy: later searches keep mutating the live record *)
let search_stats () = { !global_stats with profiled = !global_stats.profiled }
let reset_search_stats () = global_stats := fresh_search_stats ()

let pp_search_stats ppf (s : search_stats) =
  Fmt.pf ppf "%d candidate%s profiled, %d cache hit%s, %.2fs profiling wall"
    s.profiled
    (if s.profiled = 1 then "" else "s")
    s.cache_hits
    (if s.cache_hits = 1 then "" else "s")
    s.profile_wall_s;
  Fmt.pf ppf ", %d trace%s recorded, %d trace hit%s, %d merged, %.2fs trace wall"
    s.traced
    (if s.traced = 1 then "" else "s")
    s.trace_hits
    (if s.trace_hits = 1 then "" else "s")
    s.trace_merged s.trace_wall_s;
  if s.failed > 0 then Fmt.pf ppf ", %d failed" s.failed;
  if s.pruned > 0 then Fmt.pf ppf ", %d pruned" s.pruned;
  if s.rank_total > 0 then
    Fmt.pf ppf ", model agreement %d/%d (max regret %.2f%%)" s.rank_agree
      s.rank_total s.max_regret_pct;
  if s.repair_attempted > 0 then
    Fmt.pf ppf ", %d/%d partition%s repaired (%d unsound)" s.repaired
      s.repair_attempted
      (if s.repair_attempted = 1 then "" else "s")
      s.repair_unsound;
  if s.rejections <> [] then
    Fmt.pf ppf ", rejections %a"
      Fmt.(list ~sep:sp (pair ~sep:(any "×") string int))
      s.rejections

(* Model-vs-simulator verdict over one (exhaustive) search's profiled
   candidates: what would top-[k] pruning have cost?  The model's
   window is the [k] lowest-scored candidates whose profiles completed
   (ties to the earlier candidate, matching the pruning order); the
   pruned search would then profile exactly that window and pick its
   fastest member, so the verdict is (index of that member, its regret
   versus the exhaustive best, in percent).  Regret 0 means pruning
   would have selected an exhaustive winner.  [None] when no candidate
   has both a finite score and a finite time (no model ran, or every
   profile failed). *)
let model_eval ?(k = 1) ~(scores : float list) ~(times : float list) () :
    (int * float) option =
  let sarr = Array.of_list scores and tarr = Array.of_list times in
  let n = min (Array.length sarr) (Array.length tarr) in
  let order = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      match compare sarr.(i) sarr.(j) with 0 -> compare i j | c -> c)
    order;
  let best_t = ref Float.infinity in
  for i = 0 to n - 1 do
    if Float.is_finite tarr.(i) && tarr.(i) < !best_t then best_t := tarr.(i)
  done;
  let window_pick = ref None and taken = ref 0 in
  Array.iter
    (fun i ->
      if
        !taken < max 1 k
        && Float.is_finite sarr.(i)
        && Float.is_finite tarr.(i)
      then begin
        incr taken;
        match !window_pick with
        | Some (_, t) when t <= tarr.(i) -> ()
        | _ -> window_pick := Some (i, tarr.(i))
      end)
    order;
  match !window_pick with
  | Some (i, t) when Float.is_finite !best_t ->
      let regret =
        if !best_t <= 0.0 then 0.0
        else (t -. !best_t) /. !best_t *. 100.0
      in
      Some (i, regret)
  | _ -> None

(* [source] is [Hfuse.to_source f], printed once per partition by the
   search *)
let candidate_key ~(s : Settings.t) (arch : Arch.t) (c1 : configured)
    (c2 : configured) (f : Hfuse_core.Hfuse.t) ~(source : string)
    ~(reg_bound : int option) : string =
  Profile_cache.key ~arch:arch.Arch.name ~source
    ~d1:f.d1 ~d2:f.d2 ~grid:f.grid ~smem_dynamic:f.smem_dynamic ~regs:f.regs
    ~reg_bound ~k1:c1.spec.name ~size1:c1.size ~k2:c2.spec.name
    ~size2:c2.size ~trace_blocks:s.Settings.trace_blocks

(* Fan pure [Timing.run] replays over a pool: one (arch, spec list) per
   report.  [Pool.map] preserves order, so results are bit-identical to
   a serial loop for any pool width; the pool draws its chaos from the
   settings' plan.  A caller-supplied [?pool] is reused (figure sweeps
   time hundreds of spec lists; spawning domains per call would
   dominate); otherwise a fresh pool of [jobs] workers is scoped to
   this call.

   Each entry is [replay] in batch form: first answered through
   [lookup_report] (journal, persistent report cache, memo); only the
   misses reach the pool, and their reports are committed to every
   tier afterwards, so a later resume replays this call entirely from
   the journal.  Hits are bit-identical to replays — entries hold
   every report field exactly.  Tier I/O stays on the calling
   domain. *)
let run_many ?pool ?(jobs = 1) ~(settings : Settings.t) ?cache
    ?(checkpoint = Checkpoint.disabled)
    (runs : (Arch.t * Timing.launch_spec list) array) : Timing.report array =
  let cache =
    match cache with Some c -> c | None -> Settings.cache settings
  in
  let n = Array.length runs in
  let tiers = report_tiers ~cache ~checkpoint in
  let keys = Array.map (fun (arch, specs) -> report_key arch specs) runs in
  let results = Array.map (lookup_report tiers) keys in
  let miss_idx =
    List.filter (fun i -> Option.is_none results.(i)) (List.init n Fun.id)
    |> Array.of_list
  in
  let missing = Array.map (fun i -> runs.(i)) miss_idx in
  let go p =
    Hfuse_parallel.Pool.map ?fault:settings.Settings.fault p
      (fun (arch, specs) -> Timing.run_with_stats arch specs)
      missing
  in
  let fresh =
    if Array.length missing = 0 then [||]
    else
      match pool with
      | Some p -> go p
      | None -> Hfuse_parallel.Pool.with_pool jobs go
  in
  Array.iteri
    (fun j i ->
      let r, es = fresh.(j) in
      results.(i) <- Some r;
      commit tiers keys.(i) (r, es))
    miss_idx;
  Checkpoint.flush checkpoint;
  Array.map (function Some r -> r | None -> assert false) results

(* Exceptions that fail one candidate's profile without invalidating
   the rest of the search: simulator watchdog trips, launch/geometry
   problems and runtime faults in the candidate itself.  Anything else
   (Out_of_memory, programming errors) still aborts the search. *)
let is_profile_failure = function
  | Launch.Sim_timeout _ | Launch.Deadlock _ | Launch.Launch_error _
  | Interp.Exec_error _ | Value.Runtime_error _ ->
      true
  | _ -> false

(* Observed solo elapsed cycles of one kernel at its native launch —
   the cost model's per-kernel calibration input, replayed through the
   report tiers, so a warm search or a daemon's repeat never
   re-simulates it.  A failed solo yields [None] and the model runs
   uncalibrated. *)
let solo_cycles ~(s : Settings.t) ~cache ~checkpoint (arch : Arch.t)
    (c : configured) : float option =
  match
    replay ~cache ~checkpoint arch
      [ spec_of ~settings:s ~arch:arch.Arch.name c ~stream:0 () ]
  with
  | r -> Some (float_of_int r.Timing.elapsed_cycles)
  | exception e when is_profile_failure e -> None

(* Differential soundness oracle for repaired fusions: launch the two
   kernels sequentially in one fresh memory (the unfused reference) and
   the repaired fusion in another, then compare global memory
   byte-for-byte.  Anything short of bit-identical output — including a
   deadlock, a fuel trip or a launch error in either run — fails the
   gate, so an unsound (or undecidable) repair is never admitted. *)
let repair_gate ~(s : Settings.t) (c1 : configured) (c2 : configured)
    (f : Hfuse_core.Hfuse.t) : bool =
  let snapshot_of launches =
    (* instantiation order matches every other fresh-memory run, so the
       two snapshots are over identically-named, identically-seeded
       buffers and [equal_snapshot] compares like with like *)
    let mem, cs = fresh [ c1; c2 ] in
    List.iter
      (fun (info, on) -> ignore (launch ~s ~traced:false mem info on))
      (launches cs);
    Memory.snapshot mem
  in
  match
    Fault.with_retries
      ~key:
        (Hashtbl.hash
           ( "repair-gate", c1.spec.Spec.name, c2.spec.Spec.name,
             f.Hfuse_core.Hfuse.d1, f.Hfuse_core.Hfuse.d2 ))
    @@ fun () ->
    let reference =
      snapshot_of (fun cs ->
          List.map2
            (fun (c : configured) d ->
              (Hfuse_core.Kernel_info.with_block_dim c.info d, [ c ]))
            cs
            [ f.Hfuse_core.Hfuse.d1; f.Hfuse_core.Hfuse.d2 ])
    in
    let fused = snapshot_of (fun cs -> [ (Hfuse_core.Hfuse.info f, cs) ]) in
    Memory.equal_snapshot reference fused
  with
  | equal -> equal
  | exception e when is_profile_failure e -> false

(* A probe group's extremes by d1 (the first candidate wins a tie) and
   the member nearest their middle (the earliest non-extreme wins a tie;
   [None] when every member is an extreme).  [group] is non-empty. *)
let extremes_and_mid
    (group : (Hfuse_core.Hfuse.t * Hfuse_core.Search.config) list) =
  let d1_of ((_, cfg) : Hfuse_core.Hfuse.t * Hfuse_core.Search.config) =
    cfg.Hfuse_core.Search.partition.Hfuse_core.Partition.d1
  in
  let first = List.hd group in
  let lo, hi =
    List.fold_left
      (fun (mn, mx) c ->
        ( (if d1_of c < d1_of mn then c else mn),
          if d1_of c > d1_of mx then c else mx ))
      (first, first) group
  in
  let target = (d1_of lo + d1_of hi) / 2 in
  let mid =
    List.fold_left
      (fun best c ->
        if c == lo || c == hi then best
        else
          match best with
          | Some b when abs (d1_of b - target) <= abs (d1_of c - target) ->
              best
          | _ -> Some c)
      None group
  in
  (lo, mid, hi)

let search ?(jobs = 1) ?pool ~settings:(s : Settings.t) ?stats ?cache
    ?(checkpoint = Checkpoint.disabled) ?(top_k : int option)
    ?(repair = false) (arch : Arch.t) (c1 : configured) (c2 : configured) :
    Hfuse_core.Search.result =
  (* per-request stats land in the caller's record; the historical
     default keeps accumulating into the process-wide counters *)
  let stats = match stats with Some st -> st | None -> !global_stats in
  let cache = match cache with Some c -> c | None -> Settings.cache s in
  (* a candidate whose profile fails (fuel exhaustion, deadlock, a
     crashed worker past its retry budget) is excluded by giving it an
     infinite time: the Fig. 6 fold keeps the first strictly-fastest
     candidate, so infinity never wins while any candidate completed *)
  let candidate_failed (f : Hfuse_core.Hfuse.t) (e : exn) : float =
    stats.failed <- stats.failed + 1;
    Printf.eprintf "hfuse: warning: candidate %s (d1=%d d2=%d) failed: %s\n%!"
      f.fn.f_name f.d1 f.d2 (Printexc.to_string e);
    Float.infinity
  in
  (* each partition's fused kernel is printed once per search: the one
     source keys both register-bound variants' time entries, in the
     probe batch and in phase 2, and the partition's trace entry.  Keyed
     by partition (one fused kernel each within a search) and scoped to
     this call, so nothing outlives the search. *)
  let sources : (Hfuse_core.Partition.t, string) Hashtbl.t =
    Hashtbl.create 16
  in
  let source_of (f, (cfg : Hfuse_core.Search.config)) =
    match Hashtbl.find_opt sources cfg.partition with
    | Some src -> src
    | None ->
        let src = Hfuse_core.Hfuse.to_source f in
        Hashtbl.add sources cfg.partition src;
        src
  in
  (* phase 2 evaluator: disk-cache probes run serially on this domain
     (the cache file I/O and its counters are single-domain), missing
     traces are recorded concurrently in fresh memories (deduped per
     distinct trace key), then the pure Timing.run replays fan out
     over the pool.  Candidate order is preserved end-to-end, so
     results are bit-identical to the serial path for any [jobs] and
     any cache/store temperature. *)
  let profile (batch : (Hfuse_core.Hfuse.t * Hfuse_core.Search.config) list) :
      float list =
    let t0 = Unix.gettimeofday () in
    let batch = Array.of_list batch in
    let srcs = Array.map source_of batch in
    let keys =
      Array.mapi
        (fun i (f, (cfg : Hfuse_core.Search.config)) ->
          candidate_key ~s arch c1 c2 f ~source:srcs.(i)
            ~reg_bound:cfg.reg_bound)
        batch
    in
    let tiers = time_tiers ~cache ~checkpoint in
    let cached = Array.map (resolve tiers) keys in
    let times = Array.map (Option.value ~default:nan) cached in
    (* trace acquisition for the misses: one fresh-memory recording
       per *distinct* trace key, fanned over the worker pool.
       Candidates sharing a key — the same partition under different
       register bounds — are merged onto one recording (the search's
       deterministic single-flight).  Keys are collected in candidate
       order and recordings are pure, so results are bit-identical
       for any [jobs] and any store temperature. *)
    let t_trace = Unix.gettimeofday () in
    let store = Settings.trace_store s in
    let limit_bytes = Settings.trace_limit_bytes s in
    let tb = s.Settings.trace_blocks in
    let key_slot : (trace_key, int) Hashtbl.t = Hashtbl.create 16 in
    let uniq_rev = ref [] and n_uniq = ref 0 and miss_candidates = ref 0 in
    Array.iteri
      (fun i (f, (_ : Hfuse_core.Search.config)) ->
        match cached.(i) with
        | Some _ -> ()
        | None ->
            incr miss_candidates;
            let k = hfuse_key ~tb c1 c2 f in
            if not (Hashtbl.mem key_slot k) then begin
              Hashtbl.add key_slot k !n_uniq;
              incr n_uniq;
              uniq_rev := i :: !uniq_rev
            end)
      batch;
    let uniq_idx = Array.of_list (List.rev !uniq_rev) in
    let uniq = Array.map (fun i -> fst batch.(i)) uniq_idx in
    let skeys =
      Array.map
        (fun i ->
          store_key ~s ~arch:arch.Arch.name ~source:srcs.(i)
            (hfuse_key ~tb c1 c2 (fst batch.(i))))
        uniq_idx
    in
    (* store lookups stay on the coordinating domain (disk I/O and the
       shared memory tier's counters) *)
    let have = Array.map (fun k -> Trace_store.find store ~key:k) skeys in
    let to_record =
      List.init (Array.length uniq) Fun.id
      |> List.filter (fun j -> Option.is_none have.(j))
      |> Array.of_list
    in
    let recorded =
      let go p =
        Hfuse_parallel.Pool.map_isolated ?fault:s.Settings.fault p
          (fun j -> record ~s [ c1; c2 ] (Hfuse_core.Hfuse.info uniq.(j)))
          to_record
      in
      if Array.length to_record = 0 then [||]
      else
        match pool with
        | Some p -> go p
        | None -> Hfuse_parallel.Pool.with_pool jobs go
    in
    (* an exception that is not a per-candidate profile failure
       (Out_of_memory, programming errors) still aborts the search,
       exactly as it did when recording ran inline *)
    Array.iter
      (function
        | Error (fl : Hfuse_parallel.Pool.failure)
          when not (is_profile_failure fl.f_exn) ->
            Printexc.raise_with_backtrace fl.f_exn fl.f_backtrace
        | _ -> ())
      recorded;
    let rec_failed : (int, exn) Hashtbl.t = Hashtbl.create 4 in
    let fresh_traces = ref 0 in
    (* stores run on the coordinating domain, in key order *)
    Array.iteri
      (fun jj j ->
        match recorded.(jj) with
        | Ok traces ->
            incr fresh_traces;
            Trace_store.add store ?limit_bytes ~key:skeys.(j) traces;
            have.(j) <- Some traces
        | Error (fl : Hfuse_parallel.Pool.failure) ->
            Hashtbl.add rec_failed j fl.f_exn)
      to_record;
    let miss_specs =
      Array.mapi
        (fun i (f, (cfg : Hfuse_core.Search.config)) ->
          match cached.(i) with
          | Some _ -> None
          | None -> (
              let j = Hashtbl.find key_slot (hfuse_key ~tb c1 c2 f) in
              match have.(j) with
              | Some traces ->
                  Some (hfuse_spec f ~reg_bound:cfg.reg_bound ~traces)
              | None ->
                  times.(i) <- candidate_failed f (Hashtbl.find rec_failed j);
                  None))
        batch
    in
    stats.traced <- stats.traced + !fresh_traces;
    stats.trace_hits <-
      stats.trace_hits + (Array.length uniq - Array.length to_record);
    let merged = !miss_candidates - !n_uniq in
    stats.trace_merged <- stats.trace_merged + merged;
    Trace_store.note_merged merged;
    stats.trace_wall_s <-
      stats.trace_wall_s +. (Unix.gettimeofday () -. t_trace);
    let miss_idx =
      Array.to_list miss_specs
      |> List.mapi (fun i s -> (i, s))
      |> List.filter_map (fun (i, s) -> Option.map (fun s -> (i, s)) s)
      |> Array.of_list
    in
    (* per-task isolation: a worker exception (or a crashed injected
       task past its retry budget) fails one candidate, not the batch *)
    let time_misses p =
      Hfuse_parallel.Pool.map_isolated ?fault:s.Settings.fault p
        (fun (_, spec) -> (Timing.run arch [ spec ]).Timing.time_ms)
        miss_idx
    in
    let miss_times =
      match pool with
      | Some p -> time_misses p
      | None -> Hfuse_parallel.Pool.with_pool jobs time_misses
    in
    let completed = ref 0 in
    Array.iteri
      (fun j (i, _) ->
        match miss_times.(j) with
        | Ok t ->
            incr completed;
            times.(i) <- t;
            commit tiers keys.(i) t
        | Error (fl : Hfuse_parallel.Pool.failure) ->
            let f, _ = batch.(i) in
            times.(i) <- candidate_failed f fl.f_exn)
      miss_idx;
    Checkpoint.flush checkpoint;
    stats.profiled <- stats.profiled + !completed;
    stats.cache_hits <-
      stats.cache_hits
      + Array.fold_left
          (fun acc c -> acc + if Option.is_some c then 1 else 0)
          0 cached;
    stats.profile_wall_s <-
      stats.profile_wall_s +. (Unix.gettimeofday () -. t0);
    Array.to_list times
  in
  let failed_before = stats.failed in
  (* phase 1.5: the analytical cost model always scores the verified
     candidates (scores are static and cheap, and the default
     exhaustive run uses them to report model quality — rank agreement
     and regret — against the full simulated sweep).  Only an explicit
     [top_k] makes the scores prune. *)
  let rank candidates =
    let inputs =
      Hfuse_costmodel.of_pair
        ~limits:(Arch.sm_limits arch)
        ~arch c1.info c2.info
    in
    (* pin each side's cost magnitude to its observed solo run (cached
       and shared across every pair involving the kernel); a failed
       solo leaves the model uncalibrated rather than failing the
       search *)
    let inputs =
      match
        ( solo_cycles ~s ~cache ~checkpoint arch c1,
          solo_cycles ~s ~cache ~checkpoint arch c2 )
      with
      | Some s1, Some s2 -> Hfuse_costmodel.calibrate inputs ~solo1:s1 ~solo2:s2
      | _ -> inputs
    in
    (* fit the pair's empirical time-vs-partition shape from profiled
       probes: the two extreme unbounded candidates (minimal d1 starves
       kernel 1, maximal d1 starves kernel 2), the unbounded one
       nearest the middle (pins the residency-invariant floor), and per
       spilling register bound that group's extremes and middle.  The
       probes are real candidates profiled through [profile], so
       they fan out over the worker pool and their times come from
       (and land in) the same caches as phase 2.

       When a [top_k] was requested but cannot cut anything (the pair
       has no more candidates than the window), the probe simulations
       would buy nothing — the search profiles every candidate anyway —
       so they are skipped and the static scores stand.  An exhaustive
       run (no [top_k]) always fits probes: it is the only run that can
       measure model quality, and with caching enabled the probes are
       phase-2 cache hits, not extra simulations. *)
    let probes_useful =
      match top_k with
      | None -> true
      | Some k -> max 1 k < List.length candidates
    in
    let inputs =
      if not probes_useful then inputs
      else
      let unbounded, bounded =
        List.partition
          (fun ((_, cfg) : Hfuse_core.Hfuse.t * Hfuse_core.Search.config) ->
            cfg.Hfuse_core.Search.reg_bound = None)
          candidates
      in
      match unbounded with
      | _ :: _ :: _ ->
          let lo, mid, hi = extremes_and_mid unbounded in
          (* per spilling register bound: that group's extremes and the
             member nearest the middle — only candidates whose bound
             actually forces spilling reveal the capped physics *)
          let spilling =
            List.filter
              (fun ((f, cfg) : Hfuse_core.Hfuse.t * Hfuse_core.Search.config)
                 ->
                match cfg.Hfuse_core.Search.reg_bound with
                | Some r -> f.Hfuse_core.Hfuse.regs > r
                | None -> false)
              bounded
          in
          let capped =
            List.sort_uniq compare
              (List.filter_map
                 (fun ((_, cfg) :
                        Hfuse_core.Hfuse.t * Hfuse_core.Search.config) ->
                   cfg.Hfuse_core.Search.reg_bound)
                 spilling)
            |> List.concat_map (fun r ->
                   let glo, gmid, ghi =
                     extremes_and_mid
                       (List.filter
                          (fun ((_, cfg) :
                                 Hfuse_core.Hfuse.t
                                 * Hfuse_core.Search.config) ->
                            cfg.Hfuse_core.Search.reg_bound = Some r)
                          spilling)
                   in
                   (glo :: Option.to_list gmid)
                   @ if ghi == glo then [] else [ ghi ])
          in
          let probes = (lo :: Option.to_list mid) @ (hi :: capped) in
          let timed = List.combine probes (profile probes) in
          let time_of c = List.assq c timed in
          Hfuse_costmodel.calibrate_probes inputs
            ~lo:(lo, time_of lo)
            ?mid:(Option.map (fun c -> (c, time_of c)) mid)
            ~capped:(List.map (fun c -> (c, time_of c)) capped)
            ~hi:(hi, time_of hi)
            ()
      | _ -> inputs
    in
    Checkpoint.flush checkpoint;
    Hfuse_costmodel.rank inputs candidates
  in
  (* the histogram hook fires for every finally-rejected partition —
     including when the verifier rejects them all and [Search.search]
     raises, where [result.rejected] is unreachable *)
  let on_reject _partition ds = count_rejections stats ds in
  let repair_cb =
    if not repair then None
    else
      Some
        (fun ~k1 ~k2 (_ds : Hfuse_analysis.Diag.t list) ->
          stats.repair_attempted <- stats.repair_attempted + 1;
          match
            Hfuse_repair.Repair.attempt ~limits:(Arch.sm_limits arch) k1 k2
          with
          | Error _ -> None
          | Ok (r : Hfuse_repair.Repair.repaired) ->
              if repair_gate ~s c1 c2 r.fused then begin
                stats.repaired <- stats.repaired + 1;
                Some
                  {
                    Hfuse_core.Search.r_fused = r.fused;
                    r_reg_bound = r.reg_bound;
                  }
              end
              else begin
                stats.repair_unsound <- stats.repair_unsound + 1;
                None
              end)
  in
  let result =
    Hfuse_core.Search.search
      ~limits:(Arch.sm_limits arch)
      ~profile ~rank ?top_k ?repair:repair_cb ~on_reject
      ~d0:(d0_for c1 c2) c1.info c2.info
  in
  stats.ranked <-
    stats.ranked
    + List.length result.Hfuse_core.Search.scores
    + List.length result.Hfuse_core.Search.pruned;
  stats.pruned <- stats.pruned + List.length result.Hfuse_core.Search.pruned;
  (* Model quality is only measurable against an exhaustive sweep: a
     pruned run has no ground truth beyond its own window (its best IS
     the window's best, regret trivially zero), so the verdict is
     recorded only when no pruning was requested. *)
  (if top_k = None then
     match
       model_eval ~k:Hfuse_costmodel.default_top_k
         ~scores:result.Hfuse_core.Search.scores
         ~times:
           (List.map
              (fun (c : Hfuse_core.Search.candidate) -> c.time)
              result.Hfuse_core.Search.all)
         ()
     with
     | Some (_, regret) ->
         stats.rank_total <- stats.rank_total + 1;
         if regret <= 0.0 then stats.rank_agree <- stats.rank_agree + 1;
         if regret > stats.max_regret_pct then stats.max_regret_pct <- regret
     | None -> ());
  if not (Float.is_finite result.Hfuse_core.Search.best.Hfuse_core.Search.time)
  then
    failwith
      (Printf.sprintf "Runner.search: every candidate of %s + %s failed to profile"
         c1.spec.name c2.spec.name);
  if stats.failed > failed_before then
    Printf.eprintf
      "hfuse: warning: search %s + %s degraded: %d candidate(s) failed, best \
       is best-of-completed\n\
       %!"
      c1.spec.name c2.spec.name
      (stats.failed - failed_before);
  result

let naive_hfuse (c1 : configured) (c2 : configured) : Hfuse_core.Hfuse.t option
    =
  Hfuse_core.Search.naive ~d0:(d0_for c1 c2) c1.info c2.info

(* ------------------------------------------------------------------ *)
(* Correctness validation (full functional execution)                   *)
(* ------------------------------------------------------------------ *)

(* Full functional execution in fresh memory: [fuse] builds the fused
   kernel over the pair, which runs over the whole grid; both kernels'
   outputs are then checked against their host references.  Retried
   from scratch on an injected hang: the whole run restarts with fresh
   memory, so a partial first execution cannot leak into the check. *)
let validate ~(s : Settings.t) ~(key : int) (s1 : Spec.t) ~(size1 : int)
    (s2 : Spec.t) ~(size2 : int)
    (fuse : configured -> configured -> Hfuse_core.Kernel_info.t) :
    (unit, string) result =
  Fault.with_retries ~key @@ fun () ->
  let mem = Memory.create () in
  let c1 = configure mem s1 ~size:size1 in
  let c2 = configure mem s2 ~size:size2 in
  match fuse c1 c2 with
  | exception Hfuse_core.Fuse_common.Fusion_error e -> Error e
  | info -> (
      match launch ~s ~traced:false mem info [ c1; c2 ] with
      | exception Launch.Deadlock e -> Error e
      | _ -> (
          match c1.inst.check mem with
          | Error _ as e -> e
          | Ok () -> c2.inst.check mem))

(** Run the fused kernel over the whole grid in fresh memory and check
    both kernels' outputs against their host references. *)
let validate_hfuse ~settings (s1 : Spec.t) ~(size1 : int) (s2 : Spec.t)
    ~(size2 : int) ~(d1 : int) ~(d2 : int) : (unit, string) result =
  validate ~s:settings
    ~key:(Hashtbl.hash (s1.Spec.name, s2.Spec.name, d1, d2))
    s1 ~size1 s2 ~size2
    (fun c1 c2 ->
      Hfuse_core.Hfuse.info
        (Hfuse_core.Hfuse.generate
           (Hfuse_core.Kernel_info.with_block_dim c1.info d1)
           (Hfuse_core.Kernel_info.with_block_dim c2.info d2)))

let validate_vfuse ~settings (s1 : Spec.t) ~(size1 : int) (s2 : Spec.t)
    ~(size2 : int) : (unit, string) result =
  validate ~s:settings
    ~key:(Hashtbl.hash (s1.Spec.name, s2.Spec.name))
    s1 ~size1 s2 ~size2
    (fun c1 c2 -> Hfuse_core.Vfuse.info (vfuse_generate c1 c2))
