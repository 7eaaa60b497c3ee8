(* The `hfuse serve` daemon: a Unix-domain-socket server speaking the
   newline-delimited JSON protocol.

   Threading model: one accept loop (poll + stop flag, so shutdown is
   prompt), one lightweight reader thread per connection, and one
   shared {!Hfuse_parallel.Pool} of worker domains executing the verb
   bodies.  Reader threads only parse, answer the cheap verbs
   (ping/stats) inline, and hand work verbs to the pool with the
   request's priority; admission control answers [overloaded] without
   queueing when [queue_limit] requests are already waiting.  Each
   connection serialises its writes with a mutex, so responses from
   concurrent requests interleave only at line granularity, and closes
   once its reader and its last job are done.

   Fault containment: a malformed line, an unknown verb, a bad fault
   spec, or an exception escaping a verb body each cost exactly one
   error response — never the process.  SIGPIPE is ignored (a client
   hanging up mid-response must not kill the daemon). *)

module Json = Hfuse_profiler.Report.Json
module Report = Hfuse_profiler.Report
module Fault = Hfuse_fault.Fault
module Pool = Hfuse_parallel.Pool

type config = {
  socket_path : string;
  jobs : int;
  queue_limit : int;
  settings : Hfuse_profiler.Settings.t;
}

let default_queue_limit = 64

(* newest-first ring of per-request telemetry for the stats verb *)
let recent_cap = 32

type recent = { r_id : string; r_verb : string; r_exit : int; r_telemetry : Json.t }

type t = {
  config : config;
  sock : Unix.file_descr;
  pool : Pool.t;
  ledger : Ledger.t;
      (* every request's ledger is opened under this one, so the stats
         verb's counters are the sum of the requests' own *)
  stop : bool Atomic.t;
  m : Mutex.t;  (* guards everything below *)
  verbs : (string, int) Hashtbl.t;
  mutable total : int;
  mutable errors : int;
  mutable overloaded : int;
  mutable recent : recent list;
  mutable accept_thread : Thread.t option;
}

let locked t f = Mutex.protect t.m f

let note_verb t verb =
  locked t (fun () ->
      t.total <- t.total + 1;
      Hashtbl.replace t.verbs verb
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.verbs verb)))

let note_error t = locked t (fun () -> t.errors <- t.errors + 1)

let note_overloaded t =
  locked t (fun () -> t.overloaded <- t.overloaded + 1)

let record t ~id ~verb (o : Ops.outcome) =
  locked t (fun () ->
      let r =
        { r_id = id; r_verb = verb; r_exit = o.Ops.exit_code;
          r_telemetry = o.Ops.telemetry }
      in
      t.recent <-
        (r :: t.recent |> fun l ->
         List.filteri (fun i _ -> i < recent_cap) l))

(* ------------------------------------------------------------------ *)
(* stats verb                                                           *)
(* ------------------------------------------------------------------ *)

let stats_outcome t : Ops.outcome =
  let total, errors, overloaded, verbs, recent =
    locked t (fun () ->
        ( t.total,
          t.errors,
          t.overloaded,
          List.map
            (fun v -> (v, Option.value ~default:0 (Hashtbl.find_opt t.verbs v)))
            [ "fuse"; "check"; "simulate"; "search"; "stats"; "ping" ],
          t.recent ))
  in
  let pending = Pool.pending_submits t.pool in
  let l = t.ledger in
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "requests: total %d, errors %d, overloaded %d, pending %d\n" total
    errors overloaded pending;
  add "verbs: %s\n"
    (String.concat ", "
       (List.map (fun (v, n) -> Printf.sprintf "%s %d" v n) verbs));
  add "workers: %d (queue limit %d)\n" (Pool.size t.pool)
    t.config.queue_limit;
  add "pool: %s\n" (Fmt.str "%a" Pool.pp_tally (Pool.tally_of l));
  add "fault: %s\n" (Fmt.str "%a" Fault.pp_tally l);
  add "trace store: %s (%d entr%s, %d bytes in memory)\n"
    (Fmt.str "%a" Hfuse_profiler.Trace_store.pp_tally l)
    (Hfuse_profiler.Trace_store.mem_entries ())
    (if Hfuse_profiler.Trace_store.mem_entries () = 1 then "y" else "ies")
    (Hfuse_profiler.Trace_store.mem_bytes ());
  add "engine: %s\n"
    (Fmt.str "%a" Gpusim.Timing.pp_engine_stats
       (Gpusim.Timing.engine_stats_of l));
  (* the daemon-lifetime rejection histogram and repair counters,
     rejected requests included *)
  (let interesting =
     List.filter_map
       (fun (k, v) ->
         match v with
         | Ledger.Int n
           when n > 0
                && (String.starts_with ~prefix:"rej_" k
                   || String.starts_with ~prefix:"repair" k) ->
             Some (k, n)
         | _ -> None)
       (Ledger.fields l "search")
     |> List.sort compare
   in
   if interesting <> [] then
     add "search: %s\n"
       (String.concat ", "
          (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) interesting)));
  {
    Ops.output = Buffer.contents b;
    log = "";
    exit_code = 0;
    telemetry =
      Json.Obj
        [
          ("total", Json.Int total);
          ("errors", Json.Int errors);
          ("overloaded", Json.Int overloaded);
          ("pending", Json.Int pending);
          ("workers", Json.Int (Pool.size t.pool));
          ("verbs", Json.Obj (List.map (fun (v, n) -> (v, Json.Int n)) verbs));
          ("pool", Report.json_of_section l "pool");
          ("search", Report.json_of_section l "search");
          ("fault", Report.json_of_section l "fault");
          ("trace_store", Report.json_of_trace_store l);
          ("engine", Report.json_of_section l "engine");
          ( "recent",
            Json.List
              (List.map
                 (fun r ->
                   Json.Obj
                     [
                       ("id", Json.Str r.r_id);
                       ("verb", Json.Str r.r_verb);
                       ("exit_code", Json.Int r.r_exit);
                       ("telemetry", r.r_telemetry);
                     ])
                 recent) );
        ];
  }

(* ------------------------------------------------------------------ *)
(* Request handling                                                     *)
(* ------------------------------------------------------------------ *)

let ping_outcome : Ops.outcome =
  { Ops.output = "pong\n"; log = ""; exit_code = 0; telemetry = Json.Obj [] }

let handle_line t ~send ~hold ~release (line : string) =
  match Protocol.parse_request line with
  | Error resp ->
      note_error t;
      send resp
  | Ok req -> (
      match req.Protocol.verb with
      | Protocol.Ping ->
          note_verb t "ping";
          send (Protocol.response_of_outcome ~id:req.Protocol.id ping_outcome)
      | Protocol.Stats ->
          note_verb t "stats";
          send
            (Protocol.response_of_outcome ~id:req.Protocol.id (stats_outcome t))
      | Protocol.Work params -> (
          let id = req.Protocol.id in
          match
            Protocol.resolve_settings ~base:t.config.settings
              req.Protocol.settings
          with
          | exception Fault.Invalid_spec msg ->
              note_error t;
              send (Protocol.failure ~id Protocol.Invalid_request msg)
          | exception Invalid_argument msg ->
              note_error t;
              send (Protocol.failure ~id Protocol.Invalid_request msg)
          | settings -> (
              let verb = Ops.verb_name params in
              let job () =
                Fun.protect ~finally:release @@ fun () ->
                let resp =
                  match
                    Ledger.within (Some t.ledger) (fun () ->
                        Ops.run ~settings params)
                  with
                  | o ->
                      record t ~id ~verb o;
                      Protocol.response_of_outcome ~id o
                  | exception (Hfuse_core.Search.No_valid_partition _ as e) ->
                      Protocol.failure ~id Protocol.Rejected
                        (Printexc.to_string e)
                  | exception Hfuse_profiler.Runner.All_candidates_failed msg
                    ->
                      Protocol.failure ~id Protocol.All_failed msg
                  | exception e ->
                      note_error t;
                      Protocol.failure ~id Protocol.Internal
                        (Printexc.to_string e)
                in
                send resp
              in
              hold ();
              match Pool.submit ~priority:req.Protocol.priority t.pool job with
              | `Queued -> note_verb t verb
              | `Overloaded ->
                  note_overloaded t;
                  send
                    (Protocol.failure ~id Protocol.Overloaded
                       "request queue is full; retry later");
                  release ()
              | `Shutdown ->
                  send
                    (Protocol.failure ~id Protocol.Shutting_down
                       "server is shutting down");
                  release ())))

(* One request line, like [input_line] (a last line may lack its
   newline), but never holding more than [Protocol.max_request_bytes]
   of it: past the cap the rest of the line is read and dropped.
   @raise End_of_file at the end of the stream. *)
let read_request_line ic buf =
  Buffer.clear buf;
  let rec go too_large =
    match input_char ic with
    | '\n' -> too_large
    | c ->
        let full = Buffer.length buf >= Protocol.max_request_bytes in
        if not full then Buffer.add_char buf c;
        go (too_large || full)
    | exception End_of_file when too_large || Buffer.length buf > 0 ->
        too_large
  in
  if go false then `Too_large else `Line (Buffer.contents buf)

let handle_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let wm = Mutex.create () in
  (* The descriptor closes when its last holder, the reader or a job in
     flight, lets go: closed earlier, its number could be reused by the
     next connection, and a late answer would land there. *)
  let holders = Atomic.make 1 in
  let hold () = Atomic.incr holders in
  let release () =
    if Atomic.fetch_and_add holders (-1) = 1 then close_in_noerr ic
  in
  let send resp =
    let line = Protocol.response_to_line resp in
    Mutex.lock wm;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock wm)
      (fun () ->
        (* the client may be gone (EPIPE/closed): its loss, not ours *)
        try
          output_string oc line;
          output_char oc '\n';
          flush oc
        with Sys_error _ | Unix.Unix_error _ -> ())
  in
  let buf = Buffer.create 4096 in
  let rec loop () =
    match read_request_line ic buf with
    | exception (End_of_file | Sys_error _) -> ()
    | `Line line ->
        if String.trim line <> "" then handle_line t ~send ~hold ~release line;
        loop ()
    | `Too_large ->
        note_error t;
        send
          (Protocol.failure Protocol.Request_too_large
             (Printf.sprintf "request line exceeds %d bytes"
                Protocol.max_request_bytes));
        loop ()
  in
  loop ();
  release ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

let bind_socket path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     try Unix.bind fd (Unix.ADDR_UNIX path)
     with Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
       (* a socket file exists: probe whether a live daemon owns it *)
       let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       let alive =
         Fun.protect
           ~finally:(fun () -> try Unix.close probe with _ -> ())
           (fun () ->
             try
               Unix.connect probe (Unix.ADDR_UNIX path);
               true
             with Unix.Unix_error _ -> false)
       in
       if alive then failwith (path ^ ": a server is already listening");
       Unix.unlink path;
       Unix.bind fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  Unix.listen fd 64;
  fd

let create (config : config) : t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = bind_socket config.socket_path in
  let pool =
    Pool.create ~queue_limit:(max 1 config.queue_limit) (max 1 config.jobs)
  in
  {
    config;
    sock;
    pool;
    ledger = Ledger.create ();
    stop = Atomic.make false;
    m = Mutex.create ();
    verbs = Hashtbl.create 8;
    total = 0;
    errors = 0;
    overloaded = 0;
    recent = [];
    accept_thread = None;
  }

let request_stop t = Atomic.set t.stop true
let socket_path t = t.config.socket_path

let serve (t : t) : unit =
  while not (Atomic.get t.stop) do
    match Unix.select [ t.sock ] [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept t.sock with
        | fd, _ -> ignore (Thread.create (fun () -> handle_conn t fd) ())
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
  done;
  (* drain: running jobs complete and answer, queued jobs are dropped
     (their connections stay open until the process exits), the socket
     file goes away so probes know the daemon is gone *)
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  (try Unix.unlink t.config.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  Pool.shutdown t.pool

let start (config : config) : t =
  let t = create config in
  t.accept_thread <- Some (Thread.create (fun () -> serve t) ());
  t

let stop (t : t) : unit =
  request_stop t;
  match t.accept_thread with None -> () | Some th -> Thread.join th
