(* One explicit record for the profiling knobs: traced blocks, sim
   fuel, the memory-tier bound, the cache root and the chaos plan.
   This module is the only reader of their [HFUSE_*] variables.  A
   one-shot CLI resolves one record at startup; a long-lived server
   resolves its base record at startup and overrides it per request,
   and the record is threaded explicitly, so two concurrent requests
   with different knobs cannot observe each other. *)

module Fault = Hfuse_fault.Fault

type t = {
  trace_blocks : int;
  sim_fuel : int;
  trace_mem_mb : int;
  cache_dir : string option;
  fault : Fault.plan option;
}

(* an empty variable counts as unset *)
let getenv name =
  match Sys.getenv_opt name with Some "" | None -> None | v -> v

(* An override must be at least [min] (1 for counts, 0 where 0 means
   "unbounded"); an absent one comes from [env], falling back to
   [default] when the variable is unset or out of range. *)
let pick name ~min ~env ~default = function
  | Some n when n < min ->
      invalid_arg (Printf.sprintf "Settings.resolve: need %s >= %d" name min)
  | Some n -> n
  | None -> (
      let parse v = int_of_string_opt (String.trim v) in
      match Option.bind (getenv env) parse with
      | Some n when n >= min -> n
      | _ -> default)

let cache_root () =
  Option.value (getenv "HFUSE_CACHE_DIR") ~default:Profile_cache.default_dir

(* [HFUSE_CACHE=0] forces the cache off; [HFUSE_CACHE_DIR=path] (or
   [HFUSE_CACHE=1] for the default root) enables it; neither leaves
   it off. *)
let env_cache_dir () =
  match getenv "HFUSE_CACHE" with
  | Some ("0" | "off" | "no" | "false") -> None
  | Some _ -> Some (cache_root ())
  | None -> getenv "HFUSE_CACHE_DIR"

let env_fault () =
  match getenv "HFUSE_FAULT" with
  | None -> None
  | Some spec -> (
      try Fault.plan_of_spec spec
      with Fault.Invalid_spec msg ->
        raise (Fault.Invalid_spec ("HFUSE_FAULT: " ^ msg)))

(* The environment is consulted here, once per resolution and only for
   the fields not overridden, never at the use sites deep in the
   profiler. *)
let resolve ?trace_blocks ?sim_fuel ?trace_mem_mb ?cache_dir ?fault () =
  {
    trace_blocks =
      pick "trace_blocks" ~min:1 ~env:"HFUSE_TRACE_BLOCKS" ~default:1
        trace_blocks;
    sim_fuel =
      pick "sim_fuel" ~min:1 ~env:"HFUSE_SIM_FUEL"
        ~default:Gpusim.Launch.default_loop_fuel sim_fuel;
    trace_mem_mb =
      pick "trace_mem_mb" ~min:0 ~env:"HFUSE_TRACE_MEM_MB" ~default:0
        trace_mem_mb;
    cache_dir = (match cache_dir with Some v -> v | None -> env_cache_dir ());
    fault = (match fault with Some v -> v | None -> env_fault ());
  }

let cache (s : t) : Profile_cache.t =
  match s.cache_dir with
  | Some dir -> Profile_cache.create ~dir ?fault:s.fault ()
  | None -> Profile_cache.disabled ()

let trace_store (s : t) : Trace_store.t =
  match s.cache_dir with
  | Some dir -> Trace_store.create ~dir ?fault:s.fault ()
  | None -> Trace_store.disabled ()

let trace_limit_bytes (s : t) : int option =
  if s.trace_mem_mb > 0 then Some (s.trace_mem_mb * 1024 * 1024) else None
