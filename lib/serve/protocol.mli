(** Newline-delimited JSON wire protocol for [hfuse serve].

    One request per line, one response per line.  Responses echo the
    request's [id] and may complete out of order — the daemon
    schedules work on a shared priority pool, so clients match
    responses to requests by id, not arrival order.

    Request shape:
    {v
    {"id":"r1","verb":"search","priority":5,
     "settings":{"trace_blocks":1,"cache_dir":null,"fault":"sim_hang:0.02,seed:7"},
     "params":{"arch":"1080Ti","k1":"Batchnorm","k2":"Hist","jobs":2}}
    v}

    Success response:
    [{"id":"r1","ok":true,"exit_code":0,"output":"…","log":"…","telemetry":{…}}]
    — [output] is byte-identical to the one-shot CLI's stdout, [log]
    to its stderr.

    Error response:
    [{"id":"r1","ok":false,"error":{"code":"invalid_request","message":"…"}}]. *)

module Json := Hfuse_profiler.Report.Json

(** Per-request settings overrides.  The outer option is "key present
    in the request"; for [cache_dir]/[fault] the inner option
    distinguishes an explicit null ("force off") from a value. *)
type settings_spec = {
  sp_trace_blocks : int option;
  sp_sim_fuel : int option;
  sp_trace_mem_mb : int option;
  sp_cache_dir : string option option;
  sp_fault : string option option;
      (** fault spec string ({!Hfuse_fault.Fault.to_spec} syntax) *)
}

val no_overrides : settings_spec

type verb = Work of Ops.request_params | Stats | Ping

type request = {
  id : string;
  priority : int;  (** higher runs first; default 0 *)
  settings : settings_spec;
  verb : verb;
}

(** The longest request line the daemon reads: 1 MiB, far above the
    largest inline [fuse]/[check] request (two kernel sources of a few
    tens of KB).  A longer line is answered with [request_too_large]
    and the rest of it is discarded unread, so no client line can grow
    the daemon's heap without bound; the connection stays open. *)
val max_request_bytes : int

type error_code =
  | Parse_error  (** the line is not valid JSON *)
  | Request_too_large  (** the line exceeds {!max_request_bytes} *)
  | Invalid_request  (** missing/ill-typed fields, unknown arch/kernel *)
  | Unknown_verb
  | Overloaded  (** admission control: the daemon's queue is full *)
  | Shutting_down
  | Rejected
      (** a search the verifier refused at every partition: a verdict on
          the pair, not a fault; the message names
          [No_valid_partition] *)
  | All_failed
      (** a search whose every candidate failed to profile (the
          simulator's fuel ran out, say): a verdict too, not counted
          among the daemon's errors; the message is the one the
          one-shot CLI prints ({!Ops.all_failed}) *)
  | Internal  (** an exception escaped the verb body *)

val code_name : error_code -> string

type response =
  | Result of {
      id : string;
      exit_code : int;
      output : string;
      log : string;
      telemetry : Json.t;
    }
  | Failure of { id : string option; code : string; message : string }

val response_of_outcome : id:string -> Ops.outcome -> response
val failure : ?id:string -> error_code -> string -> response

(** Parse one request line.  Errors come back pre-shaped as the
    response to send, echoing the request id when one was readable. *)
val parse_request : string -> (request, response) result

(** A request's overrides applied to [base], the daemon's startup
    settings: each field the request names replaces [base]'s, the
    others are [base]'s.  The environment is not consulted.
    @raise Hfuse_fault.Fault.Invalid_spec on a malformed fault spec.
    @raise Invalid_argument on non-positive trace_blocks/sim_fuel. *)
val resolve_settings :
  base:Hfuse_profiler.Settings.t -> settings_spec -> Hfuse_profiler.Settings.t

(** Capture an effective configuration for shipping with a routed
    request, so the daemon reproduces the one-shot behaviour exactly
    (the fault plan travels as {!Hfuse_fault.Fault.to_spec}). *)
val spec_of_settings : Hfuse_profiler.Settings.t -> settings_spec

val request_to_line : request -> string
val response_to_line : response -> string
val parse_response : string -> (response, string) result
