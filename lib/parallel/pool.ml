(* A fixed-size pool of OCaml 5 worker domains with a shared task
   queue, built on Domain/Mutex/Condition.

   The profiling search uses it to fan out the pure [Timing.run]
   candidate evaluations: tracing mutates [Memory.t] and stays on the
   calling domain; timing replays immutable traces and parallelises
   safely.  [map] preserves input order, so search results are
   bit-identical to the serial path regardless of worker count.

   Availability: every task runs inside [run_task], which isolates
   exceptions (one dying task never kills the pool or its siblings),
   retries transient faults with deterministic seed-mixed backoff, and
   counts failures/retries/recovered in the submitter's ledger: a task
   runs under the ledger current where it was queued, on whichever
   domain picks it up.  The serial path runs the identical wrapper so
   fault-injection draws and counts cannot depend on [-j].

   Service pools ([create ~queue_limit]) additionally accept
   fire-and-forget {!submit} jobs with integer priorities and a
   bounded admission queue — the scheduling substrate of the fusion
   daemon.  Tasks are drained highest-priority-first, FIFO within a
   priority; [map] batches ride the same queue at priority 0. *)

module Fault = Hfuse_fault.Fault

(* priority buckets: the map key is the negated priority, so the
   smallest binding is the most urgent; a Queue per bucket keeps FIFO
   order within a priority *)
module Buckets = Map.Make (Int)

type t = {
  size : int;  (** worker domains; [<= 1] means no domains, run serial *)
  mutex : Mutex.t;  (** guards [buckets], [pending_submits], [shutting_down] *)
  has_work : Condition.t;
  mutable buckets : (unit -> unit) Queue.t Buckets.t;
  queue_limit : int option;
      (** admission bound on queued-not-yet-started {!submit} jobs *)
  mutable pending_submits : int;
  mutable shutting_down : bool;
  mutable workers : unit Domain.t list;
}

(* a backstop against absurd [-j] values, not a tuning choice: domains
   are OS threads and oversubscription is merely wasteful, never wrong *)
let max_workers = 64

let enqueue (p : t) ~(priority : int) (task : unit -> unit) : unit =
  let key = -priority in
  let q =
    match Buckets.find_opt key p.buckets with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        p.buckets <- Buckets.add key q p.buckets;
        q
  in
  Queue.add task q

let dequeue (p : t) : (unit -> unit) option =
  match Buckets.min_binding_opt p.buckets with
  | None -> None
  | Some (key, q) ->
      let task = Queue.take q in
      if Queue.is_empty q then p.buckets <- Buckets.remove key p.buckets;
      Some task

let rec worker (p : t) : unit =
  Mutex.lock p.mutex;
  let rec next () =
    if p.shutting_down then None
    else
      match dequeue p with
      | Some _ as task -> task
      | None ->
          Condition.wait p.has_work p.mutex;
          next ()
  in
  let task = next () in
  Mutex.unlock p.mutex;
  match task with
  | None -> ()
  | Some task ->
      (* a raising task must not take its worker down with it — in a
         long-lived server the pool outlives any one job.  [map] tasks
         never raise ([run_task] is terminal); this guards [submit]
         jobs whose response path fails (e.g. a vanished client). *)
      (try task () with _ -> ());
      worker p

let create ?queue_limit (jobs : int) : t =
  let size = min (max jobs 0) max_workers in
  let p =
    {
      size;
      mutex = Mutex.create ();
      has_work = Condition.create ();
      buckets = Buckets.empty;
      queue_limit;
      pending_submits = 0;
      shutting_down = false;
      workers = [];
    }
  in
  (* a service pool must drain asynchronously even at width 1, so it
     always spawns; plain pools keep the degenerate serial path *)
  let spawn =
    if queue_limit <> None then max 1 size else if size > 1 then size else 0
  in
  if spawn > 0 then
    p.workers <- List.init spawn (fun _ -> Domain.spawn (fun () -> worker p));
  p

let size (p : t) : int = max 1 p.size

let shutdown (p : t) : unit =
  Mutex.lock p.mutex;
  p.shutting_down <- true;
  Condition.broadcast p.has_work;
  Mutex.unlock p.mutex;
  List.iter Domain.join p.workers;
  p.workers <- []

let with_pool ?queue_limit (jobs : int) (f : t -> 'a) : 'a =
  let p = create ?queue_limit jobs in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)

(* ------------------------------------------------------------------ *)
(* Bounded prioritised submission (the daemon's scheduler)              *)
(* ------------------------------------------------------------------ *)

type admission = [ `Queued | `Overloaded | `Shutdown ]

let submit ?(priority = 0) (p : t) (job : unit -> unit) : admission =
  if p.queue_limit = None then
    invalid_arg "Pool.submit: pool has no workers (create with ~queue_limit)";
  Mutex.lock p.mutex;
  (* a fully shut-down service pool has no workers left: answer
     [`Shutdown] like a pool mid-teardown, never raise — a late
     request racing the daemon's exit must cost one refusal, not the
     reader thread *)
  if p.shutting_down || p.workers = [] then begin
    Mutex.unlock p.mutex;
    `Shutdown
  end
  else if
    match p.queue_limit with
    | Some l -> p.pending_submits >= l
    | None -> false
  then begin
    (* admission control: refuse now instead of queueing into
       unbounded latency — the caller answers [overloaded] *)
    Mutex.unlock p.mutex;
    `Overloaded
  end
  else begin
    p.pending_submits <- p.pending_submits + 1;
    let ledger = Ledger.current () in
    enqueue p ~priority (fun () ->
        (* the admission slot frees when the job starts running: the
           bound is on queued-not-yet-started work *)
        Mutex.lock p.mutex;
        p.pending_submits <- p.pending_submits - 1;
        Mutex.unlock p.mutex;
        Ledger.within ledger job);
    Condition.signal p.has_work;
    Mutex.unlock p.mutex;
    `Queued
  end

let pending_submits (p : t) : int =
  Mutex.lock p.mutex;
  let n = p.pending_submits in
  Mutex.unlock p.mutex;
  n

(* ------------------------------------------------------------------ *)
(* Per-task isolation and retry                                         *)
(* ------------------------------------------------------------------ *)

type failure = {
  f_index : int;
  f_attempts : int;
  f_exn : exn;
  f_backtrace : Printexc.raw_backtrace;
}

type tally = { failures : int; retries : int; recovered : int }

(* the ledger's [pool] section *)
let failures_c = Ledger.counter "pool" "failures"
let retries_c = Ledger.counter "pool" "retries"
let recovered_c = Ledger.counter "pool" "recovered"

let tally_of (l : Ledger.t) =
  {
    failures = Ledger.get l failures_c;
    retries = Ledger.get l retries_c;
    recovered = Ledger.get l recovered_c;
  }

let tally () = tally_of Ledger.process

let diff ~(before : tally) ~(after : tally) : tally =
  {
    failures = max 0 (after.failures - before.failures);
    retries = max 0 (after.retries - before.retries);
    recovered = max 0 (after.recovered - before.recovered);
  }

let pp_tally ppf (t : tally) =
  Format.fprintf ppf "%d failure%s, %d retr%s, %d recovered" t.failures
    (if t.failures = 1 then "" else "s")
    t.retries
    (if t.retries = 1 then "y" else "ies")
    t.recovered

(* injected faults are transient by construction (the retry re-draws or
   skips the injection point); the cap only guards rates close to 1 *)
let injected_cap = 64

(* per-[map] call salt: combined with the task index it gives every
   task a stable draw key, deterministic for a given call sequence *)
let call_seq = Atomic.make 0

(* Run one task to a terminal [Ok]/[Error], never raising.  Injection
   of [Worker_crash] happens once, before the first attempt, keyed on
   (call salt, task index) — pure, so the same task crashes (or not)
   at any [-j].  The fault plan is the caller's: a server threads each
   request's plan explicitly, so concurrent requests draw from their
   own plans.  Backoff sleeps are deterministic in duration
   ([Fault.jitter] is a pure function) and never touch result
   ordering: [map_isolated] slots results by index. *)
let run_task ~(retries : int) ~(salt : int) ~(fault : Fault.plan option)
    (i : int) (f : 'a -> 'b) (x : 'a) : ('b, failure) result =
  let key = Fault.mix salt i in
  let rec go attempt ever_failed =
    let res =
      try
        if attempt = 0 && Fault.fires ?plan:fault Worker_crash ~key then begin
          Fault.note_injected Worker_crash;
          raise (Fault.Injected Worker_crash)
        end;
        Ok (f x)
      with e -> Error (e, Printexc.get_raw_backtrace ())
    in
    match res with
    | Ok v ->
        if ever_failed then Ledger.add recovered_c 1;
        Ok v
    | Error (Fault.Injected k, _) when attempt < injected_cap -> (
        Ledger.add retries_c 1;
        Unix.sleepf (Fault.jitter ?plan:fault ~key ~attempt ());
        match go (attempt + 1) true with
        | Ok _ as ok ->
            Fault.note_recovered k;
            ok
        | Error _ as err -> err)
    | Error (_, _) when attempt < retries ->
        Ledger.add retries_c 1;
        Unix.sleepf (Fault.jitter ?plan:fault ~key ~attempt ());
        go (attempt + 1) true
    | Error (e, bt) ->
        Ledger.add failures_c 1;
        Error { f_index = i; f_attempts = attempt + 1; f_exn = e; f_backtrace = bt }
  in
  go 0 false

let map_isolated ?(retries = 0) ?fault (p : t) (f : 'a -> 'b) (xs : 'a array) :
    ('b, failure) result array =
  let n = Array.length xs in
  let salt = Atomic.fetch_and_add call_seq 1 in
  (* tasks count for the submitter's request, on whichever domain *)
  let ledger = Ledger.current () in
  let task i x =
    Ledger.within ledger (fun () -> run_task ~retries ~salt ~fault i f x)
  in
  if p.size <= 1 || n <= 1 then Array.mapi task xs
  else begin
    let results : ('b, failure) result option array = Array.make n None in
    (* per-call completion latch; the pool mutex only guards the queue *)
    let latch = Mutex.create () in
    let all_done = Condition.create () in
    let remaining = ref n in
    let job i () =
      let r = task i xs.(i) in
      (* [run_task] never raises, so the slot is always filled *)
      results.(i) <- Some r;
      Mutex.lock latch;
      decr remaining;
      if !remaining = 0 then Condition.signal all_done;
      Mutex.unlock latch
    in
    Mutex.lock p.mutex;
    for i = 0 to n - 1 do
      enqueue p ~priority:0 (job i)
    done;
    Condition.broadcast p.has_work;
    Mutex.unlock p.mutex;
    Mutex.lock latch;
    while !remaining > 0 do
      Condition.wait all_done latch
    done;
    Mutex.unlock latch;
    Array.map (function Some r -> r | None -> assert false) results
  end

let map ?fault (p : t) (f : 'a -> 'b) (xs : 'a array) : 'b array =
  let rs = map_isolated ?fault p f xs in
  (* the lowest-index terminal failure is re-raised with the backtrace
     captured where it was raised — deterministic at any [-j], and the
     trace points into the task, not at the pool plumbing *)
  let first_failure = ref None in
  Array.iter
    (fun r ->
      match (r, !first_failure) with
      | Error fl, None -> first_failure := Some fl
      | _ -> ())
    rs;
  match !first_failure with
  | Some fl -> Printexc.raise_with_backtrace fl.f_exn fl.f_backtrace
  | None -> Array.map (function Ok v -> v | Error _ -> assert false) rs

let map_list ?fault (p : t) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  Array.to_list (map ?fault p f (Array.of_list xs))

let default_jobs () = min max_workers (Domain.recommended_domain_count ())
