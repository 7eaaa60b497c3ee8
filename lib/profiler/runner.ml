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

   The Fig. 6 search is [Search.search] with this module's stages as
   its hooks, all over one per-search context: trace (report-tier
   lookup, then one trace acquisition per distinct trace digest — the
   register-bound variants of one partition share it), replay (the
   pure one-launch [Timing.run] replays over one OCaml 5 domain pool
   per search, filed as replay reports in the persistent cache,
   {!Profile_cache}, like every other measurement), rank (solo
   calibration, probes, scores), repair, and account.  Results are
   bit-identical to the serial path for any worker count and any cache
   temperature. *)

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
  runnable : Hfuse_core.Kernel_info.t;
      (** [info] normalised, once: what a launch runs and fusion fuses *)
  source_digest : string;  (** hex MD5 of [spec.source], once *)
  inst : Workload.instance;
}

let md5_hex (s : string) : string = Digest.to_hex (Digest.string s)

let configure (mem : Memory.t) (spec : Spec.t) ~(size : int) : configured =
  let inst = spec.instantiate mem ~size in
  let info = Spec.kernel_info spec inst in
  {
    spec;
    size;
    info;
    runnable = Hfuse_core.Kernel_info.normalized info;
    source_digest = md5_hex spec.source;
    inst;
  }

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
   [~traced:false] runs the whole grid untraced.  [info]'s kernel must
   be normalised: a configured kernel's [runnable], or a fused kernel
   through {!Hfuse_core.Kernel_info.normalized}. *)
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
   over a persistent on-disk tier under the profile-cache root, both
   under one digest of everything the keys above name plus the
   simulation fuel and the launched kernel's origin: a kernel's source
   digest (names alone would go stale when a kernel's source changes
   under a persistent directory), a fused kernel's [fusion_id].  The
   same digest names the traces in replay-report keys. *)

(* A profiled value resolves through two tiers: the persistent cache
   (touched by the resolving domain only), then the trace store's
   memory tier under the settings' bound, shared by every request in
   the process: the daemon's warm profile cache, so a repeated search
   replays nothing.  Hits are bit-identical to replays — the simulator
   is deterministic and entries keep every report field. *)
type 'v tiers = {
  kind : 'v Trace_store.kind;
  limit_bytes : int option;
  find : key:string -> 'v option;
  store : key:string -> 'v -> unit;
}

(* replay reports, keyed by launch scalars, trace identities and arch *)
let report_tiers ~(s : Settings.t) ~cache =
  {
    kind = Report;
    limit_bytes = Settings.trace_limit_bytes s;
    find = Profile_cache.find_report cache;
    store = Profile_cache.store_report cache;
  }

(* The memory tier's single-flight get-or-compute, safe on any domain,
   and whether this call computed the value. *)
let memo (t : 'v tiers) (key : string) (compute : unit -> 'v) : 'v * bool =
  let fresh = ref false in
  let v =
    Trace_store.get_or_compute ?limit_bytes:t.limit_bytes t.kind ~key
      (fun () ->
        fresh := true;
        compute ())
  in
  (v, !fresh)

(* The one place that knows the resolution order: the persistent cache
   first, then the memory tier, unclaimed (a long-lived daemon's
   earlier requests; its hits are stored to the cache).  The memory
   tier comes last so that one-shot runs see the same cache hit/store
   counters with or without it.  A miss is computed by [memo], then
   stored. *)
let lookup (t : 'v tiers) (key : string) : 'v option =
  match t.find ~key with
  | Some v ->
      ignore (memo t key (Fun.const v));
      Some v
  | None ->
      let hit = Trace_store.find_memo t.kind ~key in
      Option.iter (t.store ~key) hit;
      hit

let clear_cache = Trace_store.clear_memory

(* A report not replayed here adds the producing replay's engine stats
   to the current ledger, so a request's engine counters describe the
   work behind its reported numbers. *)
let settle (((r, es) : Timing.report * Timing.engine_stats), fresh) =
  if not fresh then Timing.note_stats es;
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

(* the digest [key]'s traces are filed under, [source_digest] being
   the hex MD5 of the launched kernel's source, or a fused kernel's
   [fusion_id] *)
let store_key ~(s : Settings.t) ~(source_digest : string) (key : trace_key) :
    string =
  Trace_store.key ~sim_fuel:s.Settings.sim_fuel
    ~trace_blocks:s.Settings.trace_blocks
    ~ident:(trace_ident key @ [ source_digest ])

(* traces resolve memory tier → disk → recording *)
let traced ~(s : Settings.t) ~(digest : string) (key : trace_key)
    (record : unit -> Trace.block array) : Trace.block array =
  Trace_store.get_or_compute ?limit_bytes:(Settings.trace_limit_bytes s)
    Traces ~key:digest (fun () ->
      Trace_store.load_or_record (Settings.trace_store s) ~key:digest
        (fun () ->
          (* every trace-recording launch is an injection point for the
             chaos harness's sim_hang; injected faults are transient, so
             the retry wrapper keeps them out of callers *)
          Fault.with_retries ~key:(Hashtbl.hash key) record))

(* A launch the report tiers resolve: its part of the report key, and
   its spec, whose traces are loaded or recorded only when the report
   misses.  [spec] is pure and safe on any domain. *)
type launch = { part : Profile_cache.part; spec : unit -> Timing.launch_spec }

(* [template] (its traces ignored) over the traces filed under [digest] *)
let keyed ~(s : Settings.t) ~(digest : string) (template : Timing.launch_spec)
    (traces : unit -> Trace.block array) : launch =
  {
    part =
      {
        label = template.label;
        grid = template.grid;
        threads = template.threads_per_block;
        regs = template.regs;
        spill = template.spill;
        smem = template.smem;
        stream = template.stream;
        traced_blocks = s.Settings.trace_blocks;
        trace = digest;
      };
    spec = (fun () -> { template with block_traces = traces () });
  }

let report_key (arch : Arch.t) (launches : launch list) : string =
  Profile_cache.report_key ~arch:arch.Arch.name ~policy:"fifo"
    (List.map (fun l -> l.part) launches)

let run_launches (arch : Arch.t) (launches : launch list) =
  Timing.run_with_stats arch (List.map (fun l -> l.spec ()) launches)

(* One replay through the report tiers, on this domain. *)
let replay ~(s : Settings.t) ?cache (arch : Arch.t) (launches : launch list) :
    Timing.report =
  let cache = match cache with Some c -> c | None -> Settings.cache s in
  let t = report_tiers ~s ~cache in
  let key = report_key arch launches in
  match lookup t key with
  | Some entry -> settle (entry, false)
  | None ->
      let got = memo t key (fun () -> run_launches arch launches) in
      t.store ~key (fst got);
      settle got

(* ------------------------------------------------------------------ *)
(* Timing-spec constructors                                             *)
(* ------------------------------------------------------------------ *)

let static_smem (info : Hfuse_core.Kernel_info.t) : int =
  Launch.static_shared_bytes info.fn.f_body

(** One kernel at [block_dim] (defaults to native) on [stream]. *)
let launch_of ~settings:(s : Settings.t) (c : configured)
    ?(block_dim : int option) ~(stream : int) () : launch =
  let d =
    match block_dim with
    | None -> Hfuse_core.Kernel_info.threads_per_block c.info
    | Some d -> d
  in
  let key =
    K_solo
      { kernel = c.spec.name; size = c.size; block_dim = d;
        tb = s.Settings.trace_blocks }
  in
  let digest = store_key ~s ~source_digest:c.source_digest key in
  keyed ~s ~digest
    {
      Timing.label = c.spec.name;
      block_traces = [||];
      grid = c.inst.grid;
      threads_per_block = d;
      regs = c.spec.regs;
      spill = 0;
      smem = static_smem c.info + c.inst.smem_dynamic;
      stream;
    }
    (fun () ->
      traced ~s ~digest key (fun () ->
          record ~s [ c ] (Hfuse_core.Kernel_info.with_block_dim c.runnable d)))

let spec_of ~settings (c : configured) ?block_dim ~stream () :
    Timing.launch_spec =
  (launch_of ~settings c ?block_dim ~stream ()).spec ()

(** Native baseline: both kernels submitted via parallel streams,
    replayed through the report tiers. *)
let native ~settings ?cache (arch : Arch.t) (c1 : configured)
    (c2 : configured) : Timing.report =
  replay ~s:settings ?cache arch
    [ launch_of ~settings c1 ~stream:0 (); launch_of ~settings c2 ~stream:1 () ]

(** One kernel alone (Fig. 8 metrics; also the ratio probes). *)
let solo ~settings (arch : Arch.t) (c : configured) : Timing.report =
  replay ~s:settings arch [ launch_of ~settings c ~stream:0 () ]

(* ------------------------------------------------------------------ *)
(* Fused runs                                                           *)
(* ------------------------------------------------------------------ *)

type fusion = Hfused | Vfused | Repaired of string

(* What a fused kernel's keys name it by instead of its printed source.
   A fused kernel is a pure function of the fusion kind, the two
   sources and what enters every key beside this identity (sizes,
   partition, geometry, registers), under the generator that
   [Fuse_common.version] names; a repaired one went through transforms
   the identity does not name, so it carries its own printed source. *)
let fusion_id (fusion : fusion) (c1 : configured) (c2 : configured) : string =
  let kind =
    match fusion with
    | Hfused -> [ "hfuse" ]
    | Vfused -> [ "vfuse" ]
    | Repaired source -> [ "repaired"; source ]
  in
  md5_hex
    (String.concat "\x00"
       ((Hfuse_core.Fuse_common.version :: kind)
       @ [ c1.source_digest; c2.source_digest ]))

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

(* The traces of a fused kernel over [c1] and [c2], filed under
   [digest], the store key of [key] and the kernel's [fusion_id] *)
let fused_traces ~(s : Settings.t) ~(digest : string) (key : trace_key)
    (c1 : configured) (c2 : configured) (info : Hfuse_core.Kernel_info.t) :
    Trace.block array =
  traced ~s ~digest key (fun () ->
      record ~s [ c1; c2 ] (Hfuse_core.Kernel_info.normalized info))

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

(** [f], fused from [c1] and [c2] as [fusion] (a [fusion_id]) names,
    under a register bound: its traces are filed under the store key of
    its trace key and [fusion].  The search's candidates and
    {!hfuse_launch} are both derived here. *)
let fused_launch ~settings:(s : Settings.t) ~(fusion : string)
    (c1 : configured) (c2 : configured) (f : Hfuse_core.Hfuse.t) :
    reg_bound:int option -> launch =
  let key = hfuse_key ~tb:s.Settings.trace_blocks c1 c2 f in
  let digest = store_key ~s ~source_digest:fusion key in
  fun ~reg_bound ->
    keyed ~s ~digest (hfuse_spec f ~reg_bound ~traces:[||]) (fun () ->
        fused_traces ~s ~digest key c1 c2 (Hfuse_core.Hfuse.info f))

(** A horizontally fused kernel under a register bound, keyed by
    [Hfused]'s identity. *)
let hfuse_launch ~settings (c1 : configured) (c2 : configured)
    (f : Hfuse_core.Hfuse.t) : reg_bound:int option -> launch =
  fused_launch ~settings ~fusion:(fusion_id Hfused c1 c2) c1 c2 f

(** Traces of the horizontally fused kernel (recorded on first use;
    stored).  [arch] is unused: traces are arch-independent. *)
let hfuse_traces ~settings ?arch:(_ : string option) (c1 : configured)
    (c2 : configured) (f : Hfuse_core.Hfuse.t) : Trace.block array =
  ((hfuse_launch ~settings c1 c2 f ~reg_bound:None).spec ()).block_traces

(** Interpret a horizontally fused kernel (profiling mode) and time it
    under an optional register bound, replayed through the report
    tiers. *)
let hfuse_report ~settings (arch : Arch.t) (c1 : configured)
    (c2 : configured) (f : Hfuse_core.Hfuse.t) ~(reg_bound : int option) :
    Timing.report =
  replay ~s:settings arch [ hfuse_launch ~settings c1 c2 f ~reg_bound ]

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

(** The vertical baseline (records the fused kernel's traces in a
    fresh memory when its report misses; stored). *)
let vfuse_launch ~settings:(s : Settings.t) (c1 : configured)
    (c2 : configured) (v : Hfuse_core.Vfuse.t) : launch =
  let vinfo = Hfuse_core.Vfuse.info v in
  let key =
    K_vfuse
      {
        k1 = c1.spec.name;
        size1 = c1.size;
        k2 = c2.spec.name;
        size2 = c2.size;
        block = v.block;
        tb = s.Settings.trace_blocks;
      }
  in
  let digest = store_key ~s ~source_digest:(fusion_id Vfused c1 c2) key in
  keyed ~s ~digest
    {
      Timing.label = v.fn.f_name;
      block_traces = [||];
      grid = v.grid;
      threads_per_block = v.block;
      regs = v.regs;
      spill = 0;
      smem = static_smem vinfo + v.smem_dynamic;
      stream = 0;
    }
    (fun () -> fused_traces ~s ~digest key c1 c2 vinfo)

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

(* The ledger's [search] section: what the Fig. 6 searches did, counted
   for the request that ran them, in telemetry field order. *)
module Counters = struct
  let counter ?kind = Ledger.counter ?kind "search"
  let profiled = counter "profiled"
  let cache_hits = counter "cache_hits"
  let profile_wall_s = counter ~kind:Ledger.Seconds "profile_wall_s"
  let failed = counter "failed"
  let ranked = counter "ranked"
  let pruned = counter "pruned"
  let rank_agree = counter "rank_agree"
  let rank_total = counter "rank_total"
  let max_regret_pct = counter ~kind:Ledger.Max "max_regret_pct"
  let traced = counter "traced"
  let trace_hits = counter "trace_hits"
  let trace_merged = counter "trace_merged"
  let trace_wall_s = counter ~kind:Ledger.Seconds "trace_wall_s"
  let repair_attempted = counter "repair_attempted"
  let repaired = counter "repaired"
  let repair_unsound = counter "repair_unsound"

  (* flat counts, so the fleet's telemetry sums add them like any other *)
  let rejections =
    List.sort String.compare Hfuse_analysis.Diag.all_kind_tags
    |> List.map (fun tag -> (tag, counter ("rej_" ^ tag)))
end

type search_stats = {
  mutable profiled : int;
  mutable cache_hits : int;
  mutable profile_wall_s : float;
  mutable traced : int;
  mutable trace_hits : int;
  mutable trace_merged : int;
  mutable trace_wall_s : float;
}

let fresh_search_stats () =
  { profiled = 0; cache_hits = 0; profile_wall_s = 0.0; traced = 0;
    trace_hits = 0; trace_merged = 0; trace_wall_s = 0.0 }

(* [f] within a ledger of its own, whose search section is added to
   [view] on every exit, raising included *)
let viewed (view : search_stats option) f =
  match view with
  | None -> f ()
  | Some v ->
      let l = Ledger.create () in
      let n = Ledger.get l and secs = Ledger.get_float l in
      let open Counters in
      Fun.protect
        ~finally:(fun () ->
          v.profiled <- v.profiled + n profiled;
          v.cache_hits <- v.cache_hits + n cache_hits;
          v.profile_wall_s <- v.profile_wall_s +. secs profile_wall_s;
          v.traced <- v.traced + n traced;
          v.trace_hits <- v.trace_hits + n trace_hits;
          v.trace_merged <- v.trace_merged + n trace_merged;
          v.trace_wall_s <- v.trace_wall_s +. secs trace_wall_s)
        (fun () -> Ledger.within (Some l) f)

let pp_search_stats ppf (l : Ledger.t) =
  let open Counters in
  let n = Ledger.get l and secs = Ledger.get_float l in
  let s c = if n c = 1 then "" else "s" in
  Fmt.pf ppf "%d candidate%s profiled, %d cache hit%s, %.2fs profiling wall"
    (n profiled) (s profiled) (n cache_hits) (s cache_hits)
    (secs profile_wall_s);
  Fmt.pf ppf ", %d trace%s recorded, %d trace hit%s, %d merged, %.2fs trace wall"
    (n traced) (s traced) (n trace_hits) (s trace_hits) (n trace_merged)
    (secs trace_wall_s);
  if n failed > 0 then Fmt.pf ppf ", %d failed" (n failed);
  if n pruned > 0 then Fmt.pf ppf ", %d pruned" (n pruned);
  if n rank_total > 0 then
    Fmt.pf ppf ", model agreement %d/%d (max regret %.2f%%)" (n rank_agree)
      (n rank_total) (secs max_regret_pct);
  if n repair_attempted > 0 then
    Fmt.pf ppf ", %d/%d partition%s repaired (%d unsound)" (n repaired)
      (n repair_attempted) (s repair_attempted) (n repair_unsound);
  let hist = List.filter (fun (_, c) -> n c > 0) rejections in
  if hist <> [] then
    Fmt.pf ppf ", rejections %a"
      Fmt.(list ~sep:sp (pair ~sep:(any "×") string int))
      (List.map (fun (tag, c) -> (tag, n c)) hist)

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

module Pool = Hfuse_parallel.Pool

(* The batch form of [replay], shared by [run_many] and the search's
   replay stage.  Every key is looked up on the calling domain; [plan]
   is handed the misses, in order, and answers each one's computation
   or the failure that already excludes it; each distinct planned key
   is computed once on the pool under [memo] and stored on the calling
   domain.  A key missing more than once takes its first entry's value
   as non-fresh, as a memory-tier hit would.  Per entry: the value and
   whether this call computed it, or the failure, in input order for
   any pool width.  [with_pool] is entered only when something is left
   to compute. *)
let resolve ~(s : Settings.t) ~(with_pool : (Pool.t -> 'r) -> 'r)
    (t : 'v tiers) (keys : string array)
    ~(plan : int array -> int -> (unit -> 'v, Pool.failure) result) :
    ('v * bool, Pool.failure) result array =
  let results =
    Array.map (fun k -> Option.map (fun v -> Ok (v, false)) (lookup t k)) keys
  in
  let misses =
    List.init (Array.length keys) Fun.id
    |> List.filter (fun i -> Option.is_none results.(i))
    |> Array.of_list
  in
  let compute = plan misses in
  (* each distinct key computes at its first miss *)
  let first : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let todo =
    Array.fold_left
      (fun todo i ->
        match compute i with
        | Error fl ->
            results.(i) <- Some (Error fl);
            todo
        | Ok _ when Hashtbl.mem first keys.(i) -> todo
        | Ok thunk ->
            Hashtbl.add first keys.(i) i;
            (i, thunk) :: todo)
      [] misses
    |> List.rev |> Array.of_list
  in
  let got =
    if todo = [||] then [||]
    else
      with_pool (fun p ->
          Pool.map_isolated ?fault:s.Settings.fault p
            (fun (i, thunk) -> memo t keys.(i) thunk)
            todo)
  in
  Array.iteri
    (fun j (i, _) ->
      Result.iter (fun (v, _) -> t.store ~key:keys.(i) v) got.(j);
      results.(i) <- Some got.(j))
    todo;
  Array.mapi
    (fun i r ->
      match r with
      | Some r -> r
      | None -> (
          match Option.get results.(Hashtbl.find first keys.(i)) with
          | Ok (v, _) -> Ok (v, false)
          | Error _ as e -> e))
    results

(* Fan pure [Timing.run] replays over a pool through [resolve]: one
   (arch, launch list) per report, each miss's traces acquired by its
   task (recordings are pure too).  A caller-supplied [?pool] is reused
   (figure sweeps time hundreds of launch lists; spawning domains per
   call would dominate); otherwise a fresh pool of [jobs] workers is
   scoped to this call.  The lowest-index failure is re-raised, as
   [Pool.map] does. *)
let run_many ?pool ?(jobs = 1) ~(settings : Settings.t) ?cache
    (runs : (Arch.t * launch list) array) : Timing.report array =
  let cache =
    match cache with Some c -> c | None -> Settings.cache settings
  in
  let with_pool f =
    match pool with Some p -> f p | None -> Pool.with_pool jobs f
  in
  resolve ~s:settings ~with_pool
    (report_tiers ~s:settings ~cache)
    (Array.map (fun (arch, launches) -> report_key arch launches) runs)
    ~plan:(fun _ i ->
      let arch, launches = runs.(i) in
      Ok (fun () -> run_launches arch launches))
  |> Array.map (function
       | Ok got -> got
       | Error (fl : Pool.failure) ->
           Printexc.raise_with_backtrace fl.f_exn fl.f_backtrace)
  |> Array.map settle

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
let solo_cycles ~(s : Settings.t) ~cache (arch : Arch.t) (c : configured) :
    float option =
  match replay ~s ~cache arch [ launch_of ~settings:s c ~stream:0 () ] with
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
              (Hfuse_core.Kernel_info.with_block_dim c.runnable d, [ c ]))
            cs
            [ f.Hfuse_core.Hfuse.d1; f.Hfuse_core.Hfuse.d2 ])
    in
    let fused =
      snapshot_of (fun cs ->
          [ (Hfuse_core.Kernel_info.normalized (Hfuse_core.Hfuse.info f), cs) ])
    in
    Memory.equal_snapshot reference fused
  with
  | equal -> equal
  | exception e when is_profile_failure e -> false

(* ------------------------------------------------------------------ *)
(* The search's stages                                                  *)
(* ------------------------------------------------------------------ *)

module Search = Hfuse_core.Search

type candidate = Hfuse_core.Hfuse.t * Search.config

exception All_candidates_failed of string

(* What every stage of one search shares.  [fusion]: the pair's
   [Hfused] identity, which names every plain candidate's traces (one
   fused kernel per partition within a search, so the partition and the
   pair's names complete its trace key); [repaired]: the [Repaired]
   identity of each partition [repair_stage] admitted, its one printed
   source.  [failures]: the search's failed candidates by report key.
   The tables are touched on the calling domain only and die with the
   search. *)
type ctx = {
  s : Settings.t;
  arch : Arch.t;
  c1 : configured;
  c2 : configured;
  cache : Profile_cache.t;
  pool : Pool.t;
  fusion : string;
  repaired : (Hfuse_core.Partition.t, string) Hashtbl.t;
  failures : (string, Pool.failure) Hashtbl.t;
}

(* a candidate as one fused launch under its own fusion identity and
   register bound: its replay report is its profile *)
let candidate_launch ctx ((f, cfg) : candidate) : launch =
  let fusion =
    Option.value (Hashtbl.find_opt ctx.repaired cfg.partition)
      ~default:ctx.fusion
  in
  fused_launch ~settings:ctx.s ~fusion ctx.c1 ctx.c2 f
    ~reg_bound:cfg.Search.reg_bound

(* A candidate whose profile fails (fuel exhaustion, deadlock, a
   crashed worker past its retry budget) is excluded by giving it an
   infinite time: the Fig. 6 fold keeps the first strictly-fastest
   candidate, so infinity never wins while any candidate completed.
   Injected faults retry in the pool, so a failure that reaches here is
   deterministic: it is warned about and counted once per search. *)
let candidate_failed ctx ~(key : string) ((f, cfg) : candidate)
    (fl : Pool.failure) : float =
  if not (Hashtbl.mem ctx.failures key) then begin
    Hashtbl.add ctx.failures key fl;
    Ledger.add Counters.failed 1;
    (* a partition's two register-bound variants are two candidates *)
    Printf.eprintf
      "hfuse: warning: candidate %s (d1=%d d2=%d reg_bound=%s) failed: %s\n%!"
      f.fn.f_name f.d1 f.d2
      (match cfg.Search.reg_bound with
      | Some r -> string_of_int r
      | None -> "none")
      (Printexc.to_string fl.f_exn)
  end;
  Float.infinity

(* trace: the traces of the candidates the report tiers missed, one
   acquisition per distinct trace digest, fanned over the pool.
   Candidates sharing a digest — one partition under different register
   bounds — merge onto one acquisition (the search's deterministic
   dedup); the store's single-flight shares each digest with concurrent
   requests.  A known failure is answered as such, never traced again.
   Digests are collected in candidate order and recordings are pure, so
   results are bit-identical for any [jobs] and any store temperature.
   Answers each miss's launch spec or failure; an exception that is not
   a profile failure (Out_of_memory, programming errors) aborts the
   search. *)
let trace_stage ctx (batch : candidate array) (launches : launch array)
    ~(keys : string array) (misses : int array) :
    int -> (Timing.launch_spec, Pool.failure) result =
  let t0 = Unix.gettimeofday () in
  let digest i = launches.(i).part.trace in
  let todo =
    List.filter
      (fun i -> not (Hashtbl.mem ctx.failures keys.(i)))
      (Array.to_list misses)
  in
  let slot : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let uniq =
    List.filter
      (fun i ->
        let d = digest i in
        let is_new = not (Hashtbl.mem slot d) in
        if is_new then Hashtbl.add slot d (Hashtbl.length slot);
        is_new)
      todo
  in
  (* each digest's traces, and whether this task recorded them (its own
     ledger counts the recording) or the store answered *)
  let acquired =
    Pool.map_isolated ?fault:ctx.s.Settings.fault ctx.pool
      (fun i ->
        let spec, l = Ledger.run launches.(i).spec in
        (spec.Timing.block_traces, Ledger.get l Trace_store.recorded > 0))
      (Array.of_list uniq)
  in
  Array.iter
    (function
      | Ok (_, true) -> Ledger.add Counters.traced 1
      | Ok (_, false) -> Ledger.add Counters.trace_hits 1
      | Error (fl : Pool.failure) when not (is_profile_failure fl.f_exn) ->
          Printexc.raise_with_backtrace fl.f_exn fl.f_backtrace
      | Error _ -> ())
    acquired;
  let merged = List.length todo - List.length uniq in
  Ledger.add Counters.trace_merged merged;
  (* candidates sharing a digest made one acquisition, so these never
     reach the single-flight table; crediting them keeps a lone search's
     [merges] deterministic *)
  Ledger.add Trace_store.merges merged;
  Ledger.add_float Counters.trace_wall_s (Unix.gettimeofday () -. t0);
  fun i ->
    match Hashtbl.find_opt ctx.failures keys.(i) with
    | Some fl -> Error fl
    | None ->
        let f, (cfg : Search.config) = batch.(i) in
        Result.map
          (fun (traces, _) -> hfuse_spec f ~reg_bound:cfg.reg_bound ~traces)
          acquired.(Hashtbl.find slot (digest i))

(* replay: [Search.search]'s [~profile] hook.  Each candidate's
   one-launch report is looked up in the report tiers on this domain,
   the misses' traces come from [trace_stage], and the pure replays fan
   out over the same pool, each under its report key's single-flight
   claim, through [resolve].  A candidate's time is its report's; a
   report not replayed here notes its engine stats, as every report hit
   does.  Candidate order is preserved end to end. *)
let replay_stage ctx (candidates : candidate list) : float list =
  let t0 = Unix.gettimeofday () in
  let batch = Array.of_list candidates in
  let launches = Array.map (candidate_launch ctx) batch in
  let keys = Array.map (fun l -> report_key ctx.arch [ l ]) launches in
  let got =
    resolve ~s:ctx.s
      ~with_pool:(fun f -> f ctx.pool)
      (report_tiers ~s:ctx.s ~cache:ctx.cache)
      keys
      ~plan:(fun misses ->
        let spec = trace_stage ctx batch launches ~keys misses in
        fun i ->
          Result.map
            (fun spec () -> Timing.run_with_stats ctx.arch [ spec ])
            (spec i))
  in
  (* a report another request's claim computed is a hit, not a profile *)
  let times =
    Array.mapi
      (fun i -> function
        | Ok ((_, fresh) as got) ->
            Ledger.add (if fresh then Counters.profiled else Counters.cache_hits) 1;
            (settle got).Timing.time_ms
        | Error fl -> candidate_failed ctx ~key:keys.(i) batch.(i) fl)
      got
  in
  Ledger.add_float Counters.profile_wall_s (Unix.gettimeofday () -. t0);
  Array.to_list times

(* rank: [Search.search]'s [~rank] hook.  The analytical cost model
   always scores the verified candidates (scores are static and cheap,
   and the default exhaustive run uses them to report model quality
   against the full simulated sweep); only an explicit [top_k] makes
   the scores prune.  Each side's cost magnitude is pinned to its
   observed solo run (a failed solo leaves the model uncalibrated), and
   the pair's time-vs-partition shape is fitted from the probes
   {!Hfuse_costmodel.pick_probes} names, profiled through
   [replay_stage], so their times come from (and land in) the same
   tiers as the full batch.  When a [top_k] cannot cut anything the
   probes would buy nothing and are skipped; an exhaustive run always
   fits them: it is the only run that can measure model quality. *)
let rank_stage ctx ~(top_k : int option) (candidates : candidate list) :
    float list =
  let { s; arch; c1; c2; cache; _ } = ctx in
  let inputs =
    Hfuse_costmodel.of_pair ~limits:(Arch.sm_limits arch) ~arch c1.info
      c2.info
  in
  let inputs =
    match (solo_cycles ~s ~cache arch c1, solo_cycles ~s ~cache arch c2) with
    | Some s1, Some s2 -> Hfuse_costmodel.calibrate inputs ~solo1:s1 ~solo2:s2
    | _ -> inputs
  in
  let probes_useful =
    match top_k with None -> true | Some k -> max 1 k < List.length candidates
  in
  let inputs =
    match
      if probes_useful then Hfuse_costmodel.pick_probes candidates else None
    with
    | None -> inputs
    | Some { lo; mid; hi; capped } ->
        let probes = (lo :: Option.to_list mid) @ (hi :: capped) in
        let timed = List.combine probes (replay_stage ctx probes) in
        let with_time c = (c, List.assq c timed) in
        Hfuse_costmodel.calibrate_probes inputs ~lo:(with_time lo)
          ?mid:(Option.map with_time mid)
          ~capped:(List.map with_time capped)
          ~hi:(with_time hi) ()
  in
  Hfuse_costmodel.rank inputs candidates

(* repair: [Search.search]'s [~repair] hook — one [Repair.attempt] per
   rejected partition, admitted only past [repair_gate]; an admitted
   fusion is printed here, once, for its [Repaired] identity *)
let repair_stage ctx ~k1 ~k2 (_ : Hfuse_analysis.Diag.t list) :
    Search.repair_outcome option =
  Ledger.add Counters.repair_attempted 1;
  match
    Hfuse_repair.Repair.attempt ~limits:(Arch.sm_limits ctx.arch) k1 k2
  with
  | Error _ -> None
  | Ok (r : Hfuse_repair.Repair.repaired) ->
      if repair_gate ~s:ctx.s ctx.c1 ctx.c2 r.fused then begin
        Ledger.add Counters.repaired 1;
        let threads = Hfuse_core.Kernel_info.threads_per_block in
        Hashtbl.replace ctx.repaired
          { Hfuse_core.Partition.d1 = threads k1; d2 = threads k2 }
          (fusion_id (Repaired (Hfuse_core.Hfuse.to_source r.fused)) ctx.c1
             ctx.c2);
        Some { Search.r_fused = r.fused; r_reg_bound = r.reg_bound }
      end
      else begin
        Ledger.add Counters.repair_unsound 1;
        None
      end

(* [Search.search]'s [~on_reject] hook: the histogram counts every
   finally-rejected partition — including when the verifier rejects
   them all and [Search.search] raises, where [result.rejected] is
   unreachable *)
let count_rejection _partition ds =
  List.iter
    (fun (d : Hfuse_analysis.Diag.t) ->
      Ledger.add
        (List.assoc (Hfuse_analysis.Diag.kind_tag d.kind) Counters.rejections)
        1)
    (Hfuse_analysis.Diag.errors ds)

(* account: the ranked/pruned counters and the model verdict, then the
   all-failed raise or the degraded warning.  Model quality is only
   measurable against an exhaustive sweep: a pruned run has no ground
   truth beyond its own window (its best IS the window's best, regret
   trivially zero), so the verdict is recorded only when no pruning was
   requested. *)
let account ctx ~(top_k : int option) (result : Search.result) :
    Search.result =
  Ledger.add Counters.ranked
    (List.length result.scores + List.length result.pruned);
  Ledger.add Counters.pruned (List.length result.pruned);
  (if top_k = None then
     match
       model_eval ~k:Hfuse_costmodel.default_top_k ~scores:result.scores
         ~times:(List.map (fun (c : Search.candidate) -> c.time) result.all)
         ()
     with
     | Some (_, regret) ->
         Ledger.add Counters.rank_total 1;
         if regret <= 0.0 then Ledger.add Counters.rank_agree 1;
         Ledger.add_float Counters.max_regret_pct regret
     | None -> ());
  let k1 = ctx.c1.spec.name and k2 = ctx.c2.spec.name in
  if not (Float.is_finite result.best.time) then
    raise
      (All_candidates_failed
         (Printf.sprintf "every candidate of %s + %s failed to profile" k1 k2));
  let n_failed = Hashtbl.length ctx.failures in
  if n_failed > 0 then
    Printf.eprintf
      "hfuse: warning: search %s + %s degraded: %d candidate(s) failed, best \
       is best-of-completed\n\
       %!"
      k1 k2 n_failed;
  result

let search ?(jobs = 1) ?pool ~settings:(s : Settings.t) ?stats ?cache
    ?(top_k : int option) ?(repair = false) (arch : Arch.t) (c1 : configured)
    (c2 : configured) : Search.result =
  viewed stats @@ fun () ->
  let cache = match cache with Some c -> c | None -> Settings.cache s in
  (* one pool per search: the caller's, else one scoped to the search,
     shared by the probe batch and the full batch, recordings and
     replays alike *)
  let with_search_pool f =
    match pool with Some p -> f p | None -> Pool.with_pool jobs f
  in
  let ctx, result =
    with_search_pool @@ fun pool ->
    let ctx =
      { s; arch; c1; c2; cache; pool; fusion = fusion_id Hfused c1 c2;
        repaired = Hashtbl.create 4; failures = Hashtbl.create 4 }
    in
    ( ctx,
      Search.search ~limits:(Arch.sm_limits arch) ~profile:(replay_stage ctx)
        ~rank:(rank_stage ctx ~top_k) ?top_k
        ?repair:(if repair then Some (repair_stage ctx) else None)
        ~on_reject:count_rejection
        ~bodies:(c1.runnable.fn, c2.runnable.fn)
        ~d0:(d0_for c1 c2) c1.info c2.info )
  in
  account ctx ~top_k result

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
      match
        launch ~s ~traced:false mem (Hfuse_core.Kernel_info.normalized info)
          [ c1; c2 ]
      with
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
