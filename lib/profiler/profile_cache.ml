(* Persistent on-disk cache of replay reports.

   The Fig. 6 search re-profiles the same fused kernels on every
   [bench] or [hfuse search] rerun, and the figure sweeps re-measure
   the same launches; the cycle-level simulator makes each of those
   replays expensive.  A candidate's profile is the time of its
   one-launch replay, so it is filed like every other measurement: as
   a whole [Timing.report], keyed by the launches' scalars and the
   identity of their traces (see the report section below).  A warmed
   cache reproduces cold-run reports exactly and misses whenever an
   input changes, the traces' identity included.

   Entries are {!Store} entries under [dir]/v2/r-<digest>.
   A handle is touched by one domain at a time: the domain that
   resolves through it (a search's or a sweep's coordinating domain, a
   daemon request's worker), never the pool tasks it fans out, so its
   counters need no locking.  Concurrent requests hold their own
   handles. *)

(* bump whenever the entry format or the timing model's inputs change
   incompatibly, or the engine changes what it reports for the same
   launches (test/golden/replay.md5 and draws.md5 pin that); old
   entries are simply never looked up again.  A change to the key
   derivation itself needs no bump when it renames every entry it
   touches (a regeneration of test/golden/keys.md5 shows that), since
   no old name can then be read as a new one. *)
let version = "v2"
let magic = "hfuse-cache"

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable corrupt : int;  (** entries quarantined after checksum failure *)
}

type t = {
  store : Store.t option;  (** [None] when disabled *)
  stats : stats;
}

let fresh_stats () = { hits = 0; misses = 0; stores = 0; corrupt = 0 }
let hits t = t.stats.hits
let misses t = t.stats.misses
let stores t = t.stats.stores
let corrupt t = t.stats.corrupt
let enabled t = Option.is_some t.store
let dir t = match t.store with Some s -> Store.dir s | None -> ""

let default_dir = "_hfuse_cache"

(* [fault] scopes this handle's chaos-corruption draws (omitted: none);
   a server threads each request's plan through its per-request handle *)
let create ?(dir = default_dir) ?fault () =
  {
    store =
      Some (Store.create ~magic ~version ~fault (Filename.concat dir version));
    stats = fresh_stats ();
  }

let disabled () = { store = None; stats = fresh_stats () }

let mkdir_p = Store.mkdir_p

(* ------------------------------------------------------------------ *)
(* Report entries                                                       *)
(* ------------------------------------------------------------------ *)

(* A search's candidate profiles and the figure sweeps' measurements
   are pure replays whose inputs rarely change between runs.  Report
   entries cache the complete [Timing.report] — every counter exact,
   every float stored as [%h] — keyed by each launch's scalars and the
   identity of its traces: the {!Trace_store} digest they are filed
   under (kernel, sizes, block dims, traced blocks, fuel and a source
   digest; for a fused kernel, its fusion identity).  Traces are a
   pure function of that identity, so a hit is bit-identical to
   re-running the engine on them, and a warm lookup reads no trace at
   all: the traces are loaded or recorded only when the report misses.
   A change to what an identity records (interpreter, workloads) bumps
   [Trace_store.version], which retires the reports with the traces.
   Each entry also records the producing replay's [engine_stats]; a hit
   adds those to the current ledger, so a request's engine counters
   keep describing the replays behind its reported numbers. *)

type part = {
  label : string;
  grid : int;
  threads : int;
  regs : int;
  spill : int;
  smem : int;
  stream : int;
  traced_blocks : int;
  trace : string;
}

let report_key ~(arch : string) ~(policy : string) (parts : part list) :
    string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf version;
  Buffer.add_string buf ":report\x00";
  Buffer.add_string buf arch;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf policy;
  Buffer.add_char buf '\x00';
  List.iter
    (fun p ->
      Printf.bprintf buf "%s %d %d %d %d %d %d %d %s\n" p.label p.grid
        p.threads p.regs p.spill p.smem p.stream p.traced_blocks p.trace)
    parts;
  "r-" ^ Digest.to_hex (Digest.string (Buffer.contents buf))

(* payload layout (text, one record per line):
     line 1: the 11 top-level report fields, floats as %h
     line 2: kernel count N
     N lines: label NUL elapsed issued blocks_per_sm
     last:    the 7 engine_stats counters a cached report carries *)

let encode_report
    ((r : Gpusim.Timing.report), (es : Gpusim.Timing.engine_stats)) : string =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "%d %h %d %d %h %d %d %d %d %h %h\n" r.elapsed_cycles
    r.time_ms r.issued_slots r.total_slots r.issue_slot_util r.mem_stall_slots
    r.sync_stall_slots r.other_stall_slots r.idle_slots r.mem_stall_pct
    r.occupancy;
  Printf.bprintf buf "%d\n" (List.length r.kernels);
  List.iter
    (fun (k : Gpusim.Timing.kernel_metrics) ->
      Printf.bprintf buf "%s\x00%d %d %d\n" k.k_label k.k_elapsed_cycles
        k.k_issued k.k_blocks_per_sm)
    r.kernels;
  Printf.bprintf buf "%d %d %d %d %d %d %d\n" es.cycles_stepped
    es.cycles_skipped es.sm_steps es.sm_steps_skipped es.scan_skip_hits
    es.warp_allocs es.warp_reuses;
  Buffer.contents buf

let decode_report (s : string) :
    Gpusim.Timing.report * Gpusim.Timing.engine_stats =
  let lines = ref (String.split_on_char '\n' s) in
  let next () =
    match !lines with
    | [] -> failwith "report: truncated"
    | l :: rest ->
        lines := rest;
        l
  in
  let split line = String.split_on_char ' ' (String.trim line) in
  let top =
    match split (next ()) with
    | [ ec; tm; is; ts; ut; ms; ss; os; id; mp; oc_ ] ->
        {
          Gpusim.Timing.elapsed_cycles = int_of_string ec;
          time_ms = float_of_string tm;
          issued_slots = int_of_string is;
          total_slots = int_of_string ts;
          issue_slot_util = float_of_string ut;
          mem_stall_slots = int_of_string ms;
          sync_stall_slots = int_of_string ss;
          other_stall_slots = int_of_string os;
          idle_slots = int_of_string id;
          mem_stall_pct = float_of_string mp;
          occupancy = float_of_string oc_;
          kernels = [];
        }
    | _ -> failwith "report header"
  in
  let n = int_of_string (String.trim (next ())) in
  let kernels =
    List.init n (fun _ ->
        let line = next () in
        let cut = String.index line '\x00' in
        let label = String.sub line 0 cut in
        let rest = String.sub line (cut + 1) (String.length line - cut - 1) in
        match split rest with
        | [ ke; ki; kb ] ->
            {
              Gpusim.Timing.k_label = label;
              k_elapsed_cycles = int_of_string ke;
              k_issued = int_of_string ki;
              k_blocks_per_sm = int_of_string kb;
            }
        | _ -> failwith "report kernel line")
  in
  let es =
    match split (next ()) with
    | [ cs; ck; st; sk; sc; wa; wr ] ->
        {
          Gpusim.Timing.cycles_stepped = int_of_string cs;
          cycles_skipped = int_of_string ck;
          sm_steps = int_of_string st;
          sm_steps_skipped = int_of_string sk;
          scan_skip_hits = int_of_string sc;
          warp_allocs = int_of_string wa;
          warp_reuses = int_of_string wr;
          (* only a fresh replay counts what it forwarded *)
          periods_forwarded = 0;
          cycles_forwarded = 0;
        }
    | _ -> failwith "report stats line"
  in
  ({ top with kernels }, es)

let store_report (t : t) ~(key : string)
    (entry : Gpusim.Timing.report * Gpusim.Timing.engine_stats) : unit =
  Option.iter
    (fun s ->
      Store.write s ~key (encode_report entry);
      t.stats.stores <- t.stats.stores + 1)
    t.store

(* A corrupt entry counts as both a miss and a [corrupt]. *)
let find_report (t : t) ~(key : string) :
    (Gpusim.Timing.report * Gpusim.Timing.engine_stats) option =
  let miss () =
    t.stats.misses <- t.stats.misses + 1;
    None
  in
  match t.store with
  | None -> None
  | Some s -> (
      match Store.read s ~key decode_report with
      | Store.Found v ->
          t.stats.hits <- t.stats.hits + 1;
          Some v
      | Store.Absent -> miss ()
      | Store.Corrupt ->
          t.stats.corrupt <- t.stats.corrupt + 1;
          miss ())
