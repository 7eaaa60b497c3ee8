(** The [hfuse serve] daemon: a Unix-domain-socket server speaking the
    newline-delimited JSON protocol of {!Protocol}.

    One accept loop, one reader thread per connection, one shared
    {!Hfuse_parallel.Pool} of worker domains running the verb bodies.
    Work verbs are scheduled with the request's priority under
    admission control (a full queue answers [overloaded] instead of
    queueing without bound).  Cheap verbs (ping/stats) are answered
    inline by the reader thread.

    Fault containment: a malformed line, a line longer than
    {!Protocol.max_request_bytes}, unknown verb, bad per-request fault
    spec, or exception escaping a verb body each cost exactly one error
    response, never the process.  SIGPIPE is ignored. *)

type config = {
  socket_path : string;
  jobs : int;  (** worker domains (at least 1) *)
  queue_limit : int;  (** max queued-unstarted requests before [overloaded] *)
  settings : Hfuse_profiler.Settings.t;
      (** the daemon's base settings (its environment plus [serve]'s
          flags), which each request's overrides replace field by
          field *)
}

val default_queue_limit : int

type t

(** Bind the socket and spawn the worker pool (no accept loop yet).
    A stale socket file left by a dead daemon is replaced; a live
    daemon on the same path raises [Failure]. *)
val create : config -> t

(** Run the accept loop on the calling thread until {!request_stop}
    (or {!stop} from another thread).  On return the socket is closed
    and its file unlinked, running requests have answered, and the
    pool is shut down. *)
val serve : t -> unit

(** Signal the accept loop to wind down (safe from a signal handler). *)
val request_stop : t -> unit

val socket_path : t -> string

(** {!create} + {!serve} on a background thread — the in-process
    harness the tests use. *)
val start : config -> t

(** {!request_stop} and join the background {!start} thread. *)
val stop : t -> unit
