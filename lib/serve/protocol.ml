(* Newline-delimited JSON wire protocol for `hfuse serve`.

   One request per line, one response per line; responses carry the
   request's [id] and may complete out of order (the daemon schedules
   work on a shared pool).  The encoding reuses the profiler's
   [Report.Json] emitter/parser — [Json.to_line] guarantees no raw
   newline escapes the framing even when kernel sources ride inside
   string fields. *)

module Json = Hfuse_profiler.Report.Json
module Settings = Hfuse_profiler.Settings
module Fault = Hfuse_fault.Fault

(* ------------------------------------------------------------------ *)
(* Types                                                                *)
(* ------------------------------------------------------------------ *)

(* Per-request settings overrides.  The outer option is "key present
   in the request"; for cache_dir/fault the inner option distinguishes
   an explicit null ("force off") from a value. *)
type settings_spec = {
  sp_trace_blocks : int option;
  sp_sim_fuel : int option;
  sp_trace_mem_mb : int option;
  sp_cache_dir : string option option;
  sp_fault : string option option;  (** fault spec string, {!Fault.to_spec} *)
}

let no_overrides =
  { sp_trace_blocks = None; sp_sim_fuel = None; sp_trace_mem_mb = None;
    sp_cache_dir = None; sp_fault = None }

type verb = Work of Ops.request_params | Stats | Ping

type request = {
  id : string;
  priority : int;  (** higher runs first; default 0 *)
  settings : settings_spec;
  verb : verb;
}

let max_request_bytes = 1 lsl 20

type error_code =
  | Parse_error
  | Request_too_large
  | Invalid_request
  | Unknown_verb
  | Overloaded
  | Shutting_down
  | Rejected
  | Internal

let code_name = function
  | Parse_error -> "parse_error"
  | Request_too_large -> "request_too_large"
  | Invalid_request -> "invalid_request"
  | Unknown_verb -> "unknown_verb"
  | Overloaded -> "overloaded"
  | Shutting_down -> "shutting_down"
  | Rejected -> "rejected"
  | Internal -> "internal"

type response =
  | Result of {
      id : string;
      exit_code : int;
      output : string;
      log : string;
      telemetry : Json.t;
    }
  | Failure of { id : string option; code : string; message : string }

let response_of_outcome ~id (o : Ops.outcome) =
  Result
    {
      id;
      exit_code = o.Ops.exit_code;
      output = o.Ops.output;
      log = o.Ops.log;
      telemetry = o.Ops.telemetry;
    }

let failure ?id code message = Failure { id; code = code_name code; message }

(* ------------------------------------------------------------------ *)
(* JSON field helpers                                                   *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let str_field ?default k j =
  match Json.member k j with
  | Some (Json.Str s) -> s
  | None -> ( match default with Some d -> d | None -> bad "%S is required" k)
  | Some _ -> bad "%S must be a string" k

let int_field ~default k j =
  match Json.member k j with
  | None -> default
  | Some (Json.Int n) -> n
  | Some _ -> bad "%S must be an integer" k

let int_opt k j =
  match Json.member k j with
  | None | Some Json.Null -> None
  | Some (Json.Int n) -> Some n
  | Some _ -> bad "%S must be an integer" k

let bool_field ~default k j =
  match Json.member k j with
  | None -> default
  | Some (Json.Bool b) -> b
  | Some _ -> bad "%S must be a boolean" k

(* present-with-null vs present-with-string vs absent *)
let nullable_str_field k j =
  match Json.member k j with
  | None -> None
  | Some Json.Null -> Some None
  | Some (Json.Str s) -> Some (Some s)
  | Some _ -> bad "%S must be a string or null" k

(* ------------------------------------------------------------------ *)
(* Domain resolution                                                    *)
(* ------------------------------------------------------------------ *)

let arch_field j =
  let name =
    str_field ~default:Gpusim.Arch.gtx1080ti.Gpusim.Arch.name "arch" j
  in
  match Gpusim.Arch.by_name name with
  | Some a -> a
  | None -> bad "unknown architecture %S" name

let corpus_kernel k j =
  let name = str_field k j in
  match Kernel_corpus.Registry.find name with
  | Some s -> s
  | None -> bad "unknown corpus kernel %S" name

let kernel_src ~label j =
  match j with
  | Some (Json.Obj _ as o) ->
      {
        Ops.ks_path = str_field ~default:("<" ^ label ^ ">") "path" o;
        ks_source = str_field "source" o;
        ks_block = int_field ~default:256 "block" o;
        ks_smem = int_field ~default:0 "smem" o;
        ks_regs = int_opt "regs" o;
      }
  | Some _ -> bad "%S must be an object" label
  | None -> bad "%S is required" label

(* ------------------------------------------------------------------ *)
(* Request parsing                                                      *)
(* ------------------------------------------------------------------ *)

let settings_of j =
  match Json.member "settings" j with
  | None -> no_overrides
  | Some (Json.Obj _ as s) ->
      {
        sp_trace_blocks = int_opt "trace_blocks" s;
        sp_sim_fuel = int_opt "sim_fuel" s;
        sp_trace_mem_mb = int_opt "trace_mem_mb" s;
        sp_cache_dir = nullable_str_field "cache_dir" s;
        sp_fault = nullable_str_field "fault" s;
      }
  | Some _ -> bad "%S must be an object" "settings"

let params_of verb j =
  let p =
    match Json.member "params" j with
    | None -> Json.Obj []
    | Some (Json.Obj _ as p) -> p
    | Some _ -> bad "%S must be an object" "params"
  in
  match verb with
  | "ping" -> Ping
  | "stats" -> Stats
  | "fuse" ->
      Work
        (Ops.Fuse
           {
             f_k1 = kernel_src ~label:"k1" (Json.member "k1" p);
             f_k2 = kernel_src ~label:"k2" (Json.member "k2" p);
             f_grid = int_field ~default:8 "grid" p;
           })
  | "check" ->
      Work
        (Ops.Check
           {
             c_arch = arch_field p;
             c_k1 = kernel_src ~label:"k1" (Json.member "k1" p);
             c_k2 =
               (match Json.member "k2" p with
               | None | Some Json.Null -> None
               | k2 -> Some (kernel_src ~label:"k2" k2));
             c_grid = int_field ~default:8 "grid" p;
             c_repair = bool_field ~default:false "repair" p;
           })
  | "simulate" ->
      Work
        (Ops.Simulate
           {
             m_arch = arch_field p;
             m_kernel = corpus_kernel "kernel" p;
             m_size = int_opt "size" p;
             m_validate = bool_field ~default:false "validate" p;
             m_engine_stats = bool_field ~default:false "engine_stats" p;
           })
  | "search" ->
      Work
        (Ops.Search
           {
             s_arch = arch_field p;
             s_k1 = corpus_kernel "k1" p;
             s_k2 = corpus_kernel "k2" p;
             s_size1 = int_opt "size1" p;
             s_size2 = int_opt "size2" p;
             s_emit = bool_field ~default:false "emit" p;
             s_jobs = int_field ~default:1 "jobs" p;
             s_top_k = int_opt "top_k" p;
             s_repair = bool_field ~default:false "repair" p;
           })
  | v -> raise (Bad (Printf.sprintf "unknown verb %S" v))

(* Parse one request line.  Errors come back pre-shaped as the
   response to send, echoing the request id when one was readable. *)
let parse_request (line : string) : (request, response) result =
  match Json.of_string line with
  | Error msg -> Error (failure Parse_error msg)
  | Ok j -> (
      let id =
        match Json.member "id" j with
        | Some (Json.Str s) -> Some s
        | Some (Json.Int n) -> Some (string_of_int n)
        | _ -> None
      in
      match
        let id = match id with Some s -> s | None -> bad "%S is required" "id" in
        let verb =
          match Json.member "verb" j with
          | Some (Json.Str v) -> v
          | _ -> bad "%S is required" "verb"
        in
        {
          id;
          priority = int_field ~default:0 "priority" j;
          settings = settings_of j;
          verb = params_of verb j;
        }
      with
      | req -> Ok req
      | exception Bad msg ->
          let code =
            if String.length msg >= 12 && String.sub msg 0 12 = "unknown verb"
            then Unknown_verb
            else Invalid_request
          in
          Error (failure ?id code msg))

(* ------------------------------------------------------------------ *)
(* Settings resolution                                                  *)
(* ------------------------------------------------------------------ *)

(* A request's overrides applied to the daemon's [base] settings.  Every
   field is given, so [Settings.resolve] only validates: the environment
   is never consulted per request.  A malformed fault spec or
   non-positive knob raises ([Fault.Invalid_spec] / [Invalid_argument]);
   the daemon maps either to one [invalid_request] response — never a
   dead process. *)
let resolve_settings ~(base : Settings.t) (sp : settings_spec) : Settings.t =
  let or_base o d = Option.value o ~default:d in
  Settings.resolve
    ~trace_blocks:(or_base sp.sp_trace_blocks base.trace_blocks)
    ~sim_fuel:(or_base sp.sp_sim_fuel base.sim_fuel)
    ~trace_mem_mb:(or_base sp.sp_trace_mem_mb base.trace_mem_mb)
    ~cache_dir:(or_base sp.sp_cache_dir base.cache_dir)
    ~fault:
      (match sp.sp_fault with
      | None -> base.fault
      | Some spec -> Option.bind spec Fault.plan_of_spec)
    ()

(* The CLI's capture of its own effective configuration, for shipping
   with a routed request so the daemon reproduces the one-shot
   behaviour exactly. *)
let spec_of_settings (s : Settings.t) : settings_spec =
  {
    sp_trace_blocks = Some s.Settings.trace_blocks;
    sp_sim_fuel = Some s.Settings.sim_fuel;
    sp_trace_mem_mb = Some s.Settings.trace_mem_mb;
    sp_cache_dir = Some s.Settings.cache_dir;
    sp_fault = Some (Option.map Fault.to_spec s.Settings.fault);
  }

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)
(* ------------------------------------------------------------------ *)

let json_of_kernel_src (k : Ops.kernel_src) : Json.t =
  Json.Obj
    ([
       ("path", Json.Str k.Ops.ks_path);
       ("source", Json.Str k.Ops.ks_source);
       ("block", Json.Int k.Ops.ks_block);
       ("smem", Json.Int k.Ops.ks_smem);
     ]
    @ match k.Ops.ks_regs with None -> [] | Some r -> [ ("regs", Json.Int r) ])

let json_of_params : Ops.request_params -> string * Json.t = function
  | Ops.Fuse p ->
      ( "fuse",
        Json.Obj
          [
            ("k1", json_of_kernel_src p.f_k1);
            ("k2", json_of_kernel_src p.f_k2);
            ("grid", Json.Int p.f_grid);
          ] )
  | Ops.Check p ->
      ( "check",
        Json.Obj
          ([
             ("arch", Json.Str p.c_arch.Gpusim.Arch.name);
             ("k1", json_of_kernel_src p.c_k1);
           ]
          @ (match p.c_k2 with
            | None -> []
            | Some k2 -> [ ("k2", json_of_kernel_src k2) ])
          @ [ ("grid", Json.Int p.c_grid) ]
          (* emitted only when set, so requests from older clients and
             their byte-exact recordings stay stable *)
          @ (if p.c_repair then [ ("repair", Json.Bool true) ] else [])) )
  | Ops.Simulate p ->
      ( "simulate",
        Json.Obj
          ([
             ("arch", Json.Str p.m_arch.Gpusim.Arch.name);
             ("kernel", Json.Str p.m_kernel.Kernel_corpus.Spec.name);
           ]
          @ (match p.m_size with None -> [] | Some n -> [ ("size", Json.Int n) ])
          @ [
              ("validate", Json.Bool p.m_validate);
              ("engine_stats", Json.Bool p.m_engine_stats);
            ]) )
  | Ops.Search p ->
      ( "search",
        Json.Obj
          ([
             ("arch", Json.Str p.s_arch.Gpusim.Arch.name);
             ("k1", Json.Str p.s_k1.Kernel_corpus.Spec.name);
             ("k2", Json.Str p.s_k2.Kernel_corpus.Spec.name);
           ]
          @ (match p.s_size1 with
            | None -> []
            | Some n -> [ ("size1", Json.Int n) ])
          @ (match p.s_size2 with
            | None -> []
            | Some n -> [ ("size2", Json.Int n) ])
          @ [ ("emit", Json.Bool p.s_emit); ("jobs", Json.Int p.s_jobs) ]
          @ (match p.s_top_k with
            | None -> []
            | Some k -> [ ("top_k", Json.Int k) ])
          @ (if p.s_repair then [ ("repair", Json.Bool true) ] else [])) )

let json_of_settings (sp : settings_spec) : (string * Json.t) list =
  let fields =
    (match sp.sp_trace_blocks with
    | None -> []
    | Some n -> [ ("trace_blocks", Json.Int n) ])
    @ (match sp.sp_sim_fuel with
      | None -> []
      | Some n -> [ ("sim_fuel", Json.Int n) ])
    @ (match sp.sp_trace_mem_mb with
      | None -> []
      | Some n -> [ ("trace_mem_mb", Json.Int n) ])
    @ (match sp.sp_cache_dir with
      | None -> []
      | Some None -> [ ("cache_dir", Json.Null) ]
      | Some (Some d) -> [ ("cache_dir", Json.Str d) ])
    @
    match sp.sp_fault with
    | None -> []
    | Some None -> [ ("fault", Json.Null) ]
    | Some (Some f) -> [ ("fault", Json.Str f) ]
  in
  match fields with [] -> [] | fs -> [ ("settings", Json.Obj fs) ]

let request_to_line (r : request) : string =
  let verb, params =
    match r.verb with
    | Ping -> ("ping", Json.Obj [])
    | Stats -> ("stats", Json.Obj [])
    | Work p -> json_of_params p
  in
  Json.to_line
    (Json.Obj
       ([ ("id", Json.Str r.id); ("verb", Json.Str verb) ]
       @ (if r.priority = 0 then [] else [ ("priority", Json.Int r.priority) ])
       @ json_of_settings r.settings
       @ match params with Json.Obj [] -> [] | p -> [ ("params", p) ]))

let response_to_line : response -> string = function
  | Result r ->
      Json.to_line
        (Json.Obj
           [
             ("id", Json.Str r.id);
             ("ok", Json.Bool true);
             ("exit_code", Json.Int r.exit_code);
             ("output", Json.Str r.output);
             ("log", Json.Str r.log);
             ("telemetry", r.telemetry);
           ])
  | Failure f ->
      Json.to_line
        (Json.Obj
           ((match f.id with None -> [] | Some id -> [ ("id", Json.Str id) ])
           @ [
               ("ok", Json.Bool false);
               ( "error",
                 Json.Obj
                   [
                     ("code", Json.Str f.code); ("message", Json.Str f.message);
                   ] );
             ]))

let parse_response (line : string) : (response, string) result =
  match Json.of_string line with
  | Error msg -> Error ("malformed response: " ^ msg)
  | Ok j -> (
      let id =
        match Json.member "id" j with Some (Json.Str s) -> Some s | _ -> None
      in
      match Json.member "ok" j with
      | Some (Json.Bool true) -> (
          match (id, Json.member "output" j, Json.member "log" j) with
          | Some id, Some (Json.Str output), Some (Json.Str log) ->
              Ok
                (Result
                   {
                     id;
                     exit_code =
                       (match Json.member "exit_code" j with
                       | Some (Json.Int n) -> n
                       | _ -> 0);
                     output;
                     log;
                     telemetry =
                       (match Json.member "telemetry" j with
                       | Some t -> t
                       | None -> Json.Obj []);
                   })
          | _ -> Error "malformed response: missing output/log")
      | Some (Json.Bool false) -> (
          match Json.member "error" j with
          | Some e ->
              Ok
                (Failure
                   {
                     id;
                     code =
                       (match Json.member "code" e with
                       | Some (Json.Str c) -> c
                       | _ -> "internal");
                     message =
                       (match Json.member "message" e with
                       | Some (Json.Str m) -> m
                       | _ -> "");
                   })
          | None -> Error "malformed response: missing error object")
      | _ -> Error "malformed response: missing ok field")
