(* Persistent on-disk cache of profiled candidate times.

   The Fig. 6 search re-profiles the same fused kernels on every
   [bench] or [hfuse search] rerun; the cycle-level simulator makes
   each of those profiles expensive.  This cache keys a candidate by a
   content hash of everything its simulated time depends on — GPU
   model, fused kernel source, partition, launch geometry, register
   bound, workload sizes, and the trace-block count — so a warmed cache
   reproduces cold-run times exactly and invalidates itself whenever
   any input changes (including compiler changes that alter the emitted
   fused source).

   Entries are {!Store} entries under [dir]/v2/<digest> (times as a
   single [%h] hex-float line; [r-<digest>] files hold whole
   measurement-replay reports — see the full-report section below).
   A handle is touched by one domain at a time: the domain that
   resolves through it (a search's or a sweep's coordinating domain, a
   daemon request's worker), never the pool tasks it fans out, so its
   counters need no locking.  Concurrent requests hold their own
   handles. *)

(* bump whenever the key derivation, the entry format, or the timing
   model's inputs change incompatibly; old entries are simply never
   looked up again *)
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

(* ------------------------------------------------------------------ *)
(* Keys                                                                 *)
(* ------------------------------------------------------------------ *)

(** Content hash of a profiled candidate.  Every input the simulated
    time depends on participates; the fused source (not just the pair's
    names) makes compiler changes self-invalidating. *)
let key ~(arch : string) ~(source : string) ~(d1 : int) ~(d2 : int)
    ~(grid : int) ~(smem_dynamic : int) ~(regs : int)
    ~(reg_bound : int option) ~(k1 : string) ~(size1 : int) ~(k2 : string)
    ~(size2 : int) ~(trace_blocks : int) : string =
  let buf = Buffer.create 512 in
  List.iter
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\x00')
    [
      version;
      arch;
      k1;
      string_of_int size1;
      k2;
      string_of_int size2;
      string_of_int d1;
      string_of_int d2;
      string_of_int grid;
      string_of_int smem_dynamic;
      string_of_int regs;
      (match reg_bound with None -> "-" | Some r -> string_of_int r);
      string_of_int trace_blocks;
      source;
    ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Storage                                                              *)
(* ------------------------------------------------------------------ *)

let mkdir_p = Store.mkdir_p

(* A corrupt entry counts as both a miss and a [corrupt]. *)
let find_entry (t : t) ~(key : string) (decode : string -> 'a) : 'a option =
  let miss () =
    t.stats.misses <- t.stats.misses + 1;
    None
  in
  match t.store with
  | None -> None
  | Some s -> (
      match Store.read s ~key decode with
      | Store.Found v ->
          t.stats.hits <- t.stats.hits + 1;
          Some v
      | Store.Absent -> miss ()
      | Store.Corrupt ->
          t.stats.corrupt <- t.stats.corrupt + 1;
          miss ())

let store_entry (t : t) ~(key : string) (payload : string) : unit =
  Option.iter
    (fun s ->
      Store.write s ~key payload;
      t.stats.stores <- t.stats.stores + 1)
    t.store

(* ------------------------------------------------------------------ *)
(* Candidate-time entries                                               *)
(* ------------------------------------------------------------------ *)

(* %h is a hexadecimal float literal: exact binary round-trip, so
   warmed-cache runs reproduce cold-run times bit-for-bit *)
let encode_time (time_ms : float) : string = Printf.sprintf "%h\n" time_ms
let decode_time (s : string) : float = float_of_string (String.trim s)

let find (t : t) ~(key : string) : float option = find_entry t ~key decode_time

let store (t : t) ~(key : string) (time_ms : float) : unit =
  store_entry t ~key (encode_time time_ms)

(* ------------------------------------------------------------------ *)
(* Full-report entries (measurement replays)                            *)
(* ------------------------------------------------------------------ *)

(* The figure sweeps spend most of their warm-run wall time in pure
   measurement replays whose inputs (traces included) have not changed
   since the previous run.  Report entries cache the complete
   [Timing.report] — every counter exact, every float stored as [%h] —
   keyed by a content hash over the launch specs and the packed traces
   themselves, so a hit is bit-identical to re-running the engine and
   any trace change (compiler, interpreter, workload) self-invalidates.
   Each entry also records the producing replay's [engine_stats]; a hit
   adds those to the current ledger, so a request's engine counters
   keep describing the replays behind its reported numbers. *)

(* FNV-1a-style fold over a packed int array: one xor-multiply per
   element keeps hashing multi-million-instruction traces cheap; the
   64-bit state is then digested with everything else, so collisions
   need simultaneous FNV and MD5 collisions. *)
let fold_ints (h : int64) (arr : int array) (len : int) : int64 =
  let h = ref h in
  for i = 0 to len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int arr.(i))) 0x100000001b3L
  done;
  !h

let fnv_basis = 0xcbf29ce484222325L

let report_key ~(arch : string) ~(policy : string)
    (specs : Gpusim.Timing.launch_spec list) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf version;
  Buffer.add_string buf ":report\x00";
  Buffer.add_string buf arch;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf policy;
  Buffer.add_char buf '\x00';
  List.iter
    (fun (s : Gpusim.Timing.launch_spec) ->
      Buffer.add_string buf s.label;
      List.iter
        (fun n ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int n))
        [
          s.grid;
          s.threads_per_block;
          s.regs;
          s.spill;
          s.smem;
          s.stream;
          Array.length s.block_traces;
        ];
      Array.iter
        (fun (block : Gpusim.Trace.block) ->
          Buffer.add_char buf '|';
          Buffer.add_string buf (string_of_int (Array.length block));
          Array.iter
            (fun (tr : Gpusim.Trace.t) ->
              let h = fold_ints fnv_basis tr.Gpusim.Trace.codes tr.len in
              let h = fold_ints h tr.payloads tr.len in
              Buffer.add_char buf ',';
              Buffer.add_string buf (string_of_int tr.len);
              Buffer.add_char buf ':';
              Buffer.add_string buf (Printf.sprintf "%Lx" h))
            block)
        s.block_traces;
      Buffer.add_char buf '\n')
    specs;
  (* distinct filename namespace from candidate-time entries *)
  "r-" ^ Digest.to_hex (Digest.string (Buffer.contents buf))

(* payload layout (text, one record per line):
     line 1: the 11 top-level report fields, floats as %h
     line 2: kernel count N
     N lines: label NUL elapsed issued blocks_per_sm
     last:    the 7 engine_stats counters a cached report carries
   Also the checkpoint journal's report payload. *)

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
  store_entry t ~key (encode_report entry)

let find_report (t : t) ~(key : string) :
    (Gpusim.Timing.report * Gpusim.Timing.engine_stats) option =
  find_entry t ~key decode_report
