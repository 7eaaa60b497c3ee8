(* Persistent, bounded, shared store of recorded block traces.

   PR 6 left the serial trace phase dominating warm searches: every
   [bench] / [hfuse search] rerun re-interprets the same kernels to
   re-record the same traces, and the daemon re-traces identical
   kernels across requests.  This store makes traces behave like the
   profile cache made times behave: recorded once, shared everywhere.

   Soundness rests on traces being a pure function of their key.  The
   interpreter's trace payloads are coalescing/bank-conflict *analysis
   results* (distinct (buffer, sector) counts — see Instr), not
   addresses, and buffer-id renaming is order-isomorphic for both the
   coalescer and the L1 sector FIFO; inputs are seeded-deterministic.
   So a recording made in a fresh memory with only the keyed workload
   instantiated is byte-identical to one made mid-search — Runner
   records all traces that way, and warmed-store runs reproduce
   cold-run results exactly.

   Two tiers:

   - a process-wide in-memory LRU keyed by a digest of everything the
     trace depends on (kernel identities + sizes + partition + launch
     geometry + trace-block count + simulation fuel).  One table for
     the whole process, so concurrent daemon requests share warm
     traces.  The same table is Runner's memo tier for replay reports
     and candidate times, so an optional byte bound
     ([Settings.trace_mem_mb]) covers everything a long-lived daemon
     keeps in memory.

   - a per-handle on-disk tier: {!Store} entries under
     [<root>/traces/v1/<digest>], corrupt ones quarantined to
     [<root>/traces/quarantine/<digest>] and re-recorded.  Disk keys
     additionally fold in the GPU model name and a source digest, so
     shared directories self-invalidate across archs and kernel-source
     changes even though trace keys only carry kernel *names*.

   [get_or_compute] is the one way in, for traces, replay reports and
   candidate times alike.  Its single-flight table dedups concurrent
   computations of one key: the first caller computes (for a trace,
   [load_or_record]: disk, else a recording) while the rest wait and
   share the result.  Computing happens outside the lock.  A claimant
   counts its recording in its ledger, a waiter the wait and the hit. *)

module Trace = Gpusim.Trace

(* bump whenever the key derivation or Trace.encode_blocks changes
   incompatibly; old entries are simply never looked up again *)
let version = "v1"
let magic = "hfuse-traces"

(* ------------------------------------------------------------------ *)
(* Keys                                                                 *)
(* ------------------------------------------------------------------ *)

type key = {
  mem : string;
      (** in-memory tier digest: everything the recorded trace is a
          function of.  Deliberately excludes [arch] — traces are
          arch-independent (the interpreter takes no device model), so
          a two-arch sweep records each pair once. *)
  disk : string;
      (** on-disk tier digest: [mem]'s inputs plus arch.  Disk entries
          outlive the process and may be shared across machines, so
          they pay for defensive splitting the memory tier need not. *)
}

let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let keys ~(arch : string) ~(sim_fuel : int) ~(trace_blocks : int)
    ~(ident : string list) : key =
  let base =
    magic :: version
    :: string_of_int sim_fuel
    :: string_of_int trace_blocks
    :: ident
  in
  { mem = digest base; disk = digest (arch :: base) }

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)
(* ------------------------------------------------------------------ *)

(* the ledger's [trace_store] section; hits, recordings, evictions and
   merges count trace entries only, waits count claims of every kind *)
let counter = Ledger.counter "trace_store"
let mem_hits = counter "mem_hits"
let disk_hits = counter "disk_hits"
let recorded = counter "recorded"
let stores = counter "stores"
let quarantined = counter "quarantined"
let evictions = counter "evictions"
let merges = counter "merges"
let waits = counter "waits"
let wait_s = Ledger.counter ~kind:Ledger.Seconds "trace_store" "wait_s"

let pp_tally ppf (l : Ledger.t) =
  let n c = Ledger.get l c in
  let plural c = if n c = 1 then "" else "s" in
  Fmt.pf ppf "%d mem hit%s, %d disk hit%s, %d recorded, %d merged"
    (n mem_hits) (plural mem_hits) (n disk_hits) (plural disk_hits)
    (n recorded) (n merges);
  if n evictions > 0 then Fmt.pf ppf ", %d evicted" (n evictions);
  if n quarantined > 0 then Fmt.pf ppf ", %d quarantined" (n quarantined);
  if n waits > 0 then
    Fmt.pf ppf ", %d wait%s (%.2fs)" (n waits) (plural waits)
      (Ledger.get_float l wait_s)

(* ------------------------------------------------------------------ *)
(* Memory tier: one process-wide LRU for every profiled value           *)
(* ------------------------------------------------------------------ *)

type _ kind =
  | Traces : Trace.block array kind
  | Report : (Gpusim.Timing.report * Gpusim.Timing.engine_stats) kind
  | Time : float kind

type value = V : 'v kind * 'v -> value

(* the payload of [v] when it is of kind [k]: a kind mismatch is a
   miss, so entries of different kinds never answer for each other *)
let get : type v. v kind -> value -> v option =
 fun k (V (k', x)) ->
  match (k, k') with
  | Traces, Traces -> Some x
  | Report, Report -> Some x
  | Time, Time -> Some x
  | _ -> None

(* 1 for a trace entry: the trace counters count those only *)
let trace_entry : type v. v kind -> int =
 fun k -> match k with Traces -> 1 | Report | Time -> 0

let value_bytes : type v. v kind -> v -> int =
 fun k x ->
  match k with
  | Traces -> Trace.blocks_bytes x
  | Report -> Obj.reachable_words (Obj.repr x) * (Sys.word_size / 8)
  | Time -> 8

(* Entries sit on a circular doubly-linked recency list through the
   sentinel [lru], newest first: a hit moves its entry to the front and
   eviction takes from the back, both in O(1). *)
type entry = {
  key : string;
  value : value;
  bytes : int;  (** the key plus the value *)
  mutable prev : entry;
  mutable next : entry;
}

let rec lru =
  { key = ""; value = V (Time, 0.); bytes = 0; prev = lru; next = lru }

let mem_mutex = Mutex.create ()
let mem_cond = Condition.create ()
let mem_tbl : (string, entry) Hashtbl.t = Hashtbl.create 256
let mem_total = ref 0

(* keys currently being computed (single-flight); waiters sleep on
   [mem_cond] until the claimant publishes or gives up *)
let in_flight : (string, unit) Hashtbl.t = Hashtbl.create 8

(* test hook: overrides any per-call limit so eviction can be forced
   with sub-megabyte budgets *)
let limit_override : int option ref = ref None
let set_mem_limit_override v = limit_override := v

let mem_entries () = Mutex.protect mem_mutex (fun () -> Hashtbl.length mem_tbl)
let mem_bytes () = Mutex.protect mem_mutex (fun () -> !mem_total)

let clear_memory () =
  Mutex.protect mem_mutex (fun () ->
      Hashtbl.reset mem_tbl;
      lru.prev <- lru;
      lru.next <- lru;
      mem_total := 0)

(* everything below runs with [mem_mutex] held *)
let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_newest e =
  e.prev <- lru;
  e.next <- lru.next;
  lru.next.prev <- e;
  lru.next <- e

let drop e =
  unlink e;
  Hashtbl.remove mem_tbl e.key;
  mem_total := !mem_total - e.bytes

(* An insertion replaces any entry under its key, then evicts oldest
   first until the tier fits or only the new entry is left: it survives
   even when it alone exceeds the bound, so a search can always keep
   the trace it is about to replay.  Answers the trace entries evicted. *)
let insert_mem ~(limit_bytes : int option) k (key : string) x : int =
  Option.iter drop (Hashtbl.find_opt mem_tbl key);
  let bytes = String.length key + value_bytes k x in
  let e = { key; value = V (k, x); bytes; prev = lru; next = lru } in
  push_newest e;
  Hashtbl.add mem_tbl key e;
  mem_total := !mem_total + bytes;
  let evicted = ref 0 in
  (match (!limit_override, limit_bytes) with
  | Some limit, _ | None, Some limit ->
      while !mem_total > limit && lru.prev != e do
        let old = lru.prev in
        drop old;
        match old.value with V (k, _) -> evicted := !evicted + trace_entry k
      done
  | None, None -> ());
  !evicted

let lookup_mem k (key : string) =
  match Hashtbl.find_opt mem_tbl key with
  | None -> None
  | Some e ->
      let hit = get k e.value in
      if Option.is_some hit then (unlink e; push_newest e);
      hit

let find_memo k ~key = Mutex.protect mem_mutex (fun () -> lookup_mem k key)

(* A caller that blocked on another's claim counts the wait, and the
   time blocked, whatever the kind: that time is neither its lookup nor
   its computation. *)
let get_or_compute ?limit_bytes (k : 'v kind) ~(key : string)
    (compute : unit -> 'v) : 'v =
  (* phase 1: memory tier + single-flight arbitration under the lock *)
  let t0 = Unix.gettimeofday () in
  let hit, waited =
    Mutex.protect mem_mutex (fun () ->
        let rec arbitrate ~waited =
          match lookup_mem k key with
          | Some _ as hit -> (hit, waited)
          | None when Hashtbl.mem in_flight key ->
              Condition.wait mem_cond mem_mutex;
              arbitrate ~waited:true
          | None ->
              Hashtbl.add in_flight key ();
              (None, waited)
        in
        arbitrate ~waited:false)
  in
  if waited then begin
    Ledger.add waits 1;
    Ledger.add_float wait_s (Unix.gettimeofday () -. t0)
  end;
  match hit with
  | Some v ->
      Ledger.add mem_hits (trace_entry k);
      if waited then Ledger.add merges (trace_entry k);
      v
  | None ->
      (* phase 2: compute outside the lock, then publish.  On failure
         the claim is released so a waiter retries (a deterministic
         failure simply repeats for it, as it would have serially). *)
      Fun.protect
        ~finally:(fun () ->
          Mutex.protect mem_mutex (fun () ->
              Hashtbl.remove in_flight key;
              Condition.broadcast mem_cond))
        (fun () ->
          let v = compute () in
          let evicted =
            Mutex.protect mem_mutex (fun () -> insert_mem ~limit_bytes k key v)
          in
          Ledger.add evictions evicted;
          v)

(* ------------------------------------------------------------------ *)
(* Disk tier                                                            *)
(* ------------------------------------------------------------------ *)

(* [None] when the disk tier is disabled *)
type t = Store.t option

let dir = function Some s -> Store.dir s | None -> ""

let create ?(dir = Profile_cache.default_dir) ?fault () =
  Some
    (Store.create ~magic ~version ~fault
       (Filename.concat (Filename.concat dir "traces") version))

let disabled () = None

let decode payload =
  match Trace.decode_blocks payload with
  | Some blocks -> blocks
  | None -> failwith "trace entry"

(* A trace's computation: the disk tier, else a recording. *)
let load_or_record (t : t) ~(key : key) (record : unit -> Trace.block array) :
    Trace.block array =
  match Option.map (fun s -> Store.read s ~key:key.disk decode) t with
  | Some (Store.Found blocks) ->
      Ledger.add disk_hits 1;
      blocks
  | found ->
      if found = Some Store.Corrupt then Ledger.add quarantined 1;
      let blocks = record () in
      Ledger.add recorded 1;
      Option.iter
        (fun s ->
          Store.write s ~key:key.disk (Trace.encode_blocks blocks);
          Ledger.add stores 1)
        t;
      blocks
