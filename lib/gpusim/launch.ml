(* Kernel launches: block/warp creation, shared-memory layout, argument
   binding, and the per-block warp scheduler that implements barrier
   arrival counting.

   Each warp runs as an OCaml-effects fiber: reaching a barrier performs
   {!Interp.Barrier_eff}, the scheduler captures the continuation and
   accumulates the arrival count for that barrier id; when the count
   reaches the barrier's thread count the waiters are resumed.  A state
   where no warp can run but some are blocked is a *barrier deadlock* —
   precisely what happens if a [__syncthreads()] survives un-replaced in
   a horizontally fused kernel — and is reported as {!Deadlock}. *)

open Cuda

exception Deadlock of string
exception Launch_error of string

(** Fuel watchdog: a warp of [block] exhausted [fuel] interpreter loop
    iterations.  Structured so the profiler can record which candidate
    timed out and degrade gracefully instead of parsing a message. *)
exception Sim_timeout of { kernel : string; fuel : int; block : int }

let () =
  Printexc.register_printer (function
    | Sim_timeout { kernel; fuel; block } ->
        Some
          (Printf.sprintf
             "Sim_timeout(kernel %s: loop fuel %d exhausted in block %d — \
              runaway loop?)"
             kernel fuel block)
    | _ -> None)

let fail fmt = Fmt.kstr (fun s -> raise (Launch_error s)) fmt

(* Per-launch watchdog budget: interpreter loop iterations per warp.
   3M covers every corpus workload by orders of magnitude while still
   tripping on genuinely runaway kernels in seconds; [?loop_fuel]
   overrides it per launch (the profiler passes its settings' fuel). *)
let default_loop_fuel = 3_000_000

(* An injected hang shrinks the budget to a token amount instead of
   looping: the watchdog then trips exactly as it would on a real
   runaway kernel, exercising the same recovery path at test speed. *)
let injected_hang_fuel = 64

type config = {
  grid : int;
  block : int * int * int;
  smem_dynamic : int;  (** bytes of [extern __shared__] memory per block *)
  trace_blocks : int;  (** record traces for the first N blocks *)
  l1_sectors : int;
      (** modelled per-block L1 capacity in 32-byte sectors, the same
          on every architecture (traces are recorded once for all of
          them; {!launch_info} defaults to 512); 0 disables the cache
          model *)
  exec_blocks : int option;
      (** execute only the first N blocks functionally (profiling mode:
          the timing model replays traces cyclically, so executing every
          block is only needed when the outputs matter).  [None] runs the
          whole grid. *)
}

type result = {
  block_traces : Trace.block array;
      (** one entry per traced block (first [trace_blocks] of the grid) *)
  grid : int;
  threads_per_block : int;
  warps_per_block : int;
}

(* ------------------------------------------------------------------ *)
(* Shared-memory layout                                                 *)
(* ------------------------------------------------------------------ *)

(** Assign byte offsets to the kernel's shared declarations.  Static
    [__shared__] arrays are packed in declaration order with natural
    alignment; every [extern __shared__] array starts at the first byte
    after the static region — CUDA semantics: all extern arrays alias the
    same dynamic buffer. *)
let shared_layout (body : Ast.stmt list) :
    (string, int * Ctype.t) Hashtbl.t * int =
  let layout = Hashtbl.create 8 in
  let static_end = ref 0 in
  List.iter
    (fun (d : Ast.decl) ->
      match (d.d_storage, d.d_type) with
      | Ast.Shared, Ctype.Array (el, Some n) ->
          let align = max 4 (Ctype.sizeof el) in
          let off = Hfuse_core.Fuse_common.align_up !static_end align in
          Hashtbl.replace layout d.d_name (off, el);
          static_end := off + (n * Ctype.sizeof el)
      | Ast.Shared, t ->
          fail "__shared__ %s must be a sized array (got %s)" d.d_name
            (Ctype.to_string t)
      | _ -> ())
    (Ast_util.collect_decls body);
  let static_end = Hfuse_core.Fuse_common.align_up !static_end 16 in
  List.iter
    (fun (d : Ast.decl) ->
      match (d.d_storage, d.d_type) with
      | Ast.Shared_extern, Ctype.Array (el, None) ->
          Hashtbl.replace layout d.d_name (static_end, el)
      | Ast.Shared_extern, t ->
          fail "extern __shared__ %s must be an unsized array (got %s)"
            d.d_name (Ctype.to_string t)
      | _ -> ())
    (Ast_util.collect_decls body);
  (layout, static_end)

(** Static shared bytes needed by a kernel body (the extern region is
    sized by the launch configuration). *)
let static_shared_bytes (body : Ast.stmt list) : int =
  snd (shared_layout body)

(* ------------------------------------------------------------------ *)
(* Per-block scheduler                                                  *)
(* ------------------------------------------------------------------ *)

type step =
  | Finished
  | Blocked of int * int * int * (unit, step) Effect.Deep.continuation
      (** barrier id, thread count, warp live threads, continuation *)

let run_fiber (f : unit -> unit) : step =
  Effect.Deep.match_with f ()
    {
      retc = (fun () -> Finished);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Interp.Barrier_eff (id, count, live) ->
              Some
                (fun (k : (a, step) Effect.Deep.continuation) ->
                  Blocked (id, count, live, k))
          | _ -> None);
    }

type barrier_state = {
  mutable arrived : int;  (** threads arrived since last release *)
  mutable expected : int;  (** thread count of the barrier *)
  mutable waiters : (int * (unit, step) Effect.Deep.continuation) list;
      (** (warp index, continuation) *)
}

(** Run all warps of one block to completion.  [make_warp w] must return
    the warp's body thunk. *)
let run_block ~(warps : int) ~(kernel_name : string)
    (make_warp : int -> (unit -> unit)) : unit =
  let state : step option array = Array.make warps None in
  (* None = finished; Some = blocked step awaiting barrier release *)
  let pending = Queue.create () in
  for w = 0 to warps - 1 do
    Queue.add (`Start w) pending
  done;
  let barriers : (int, barrier_state) Hashtbl.t = Hashtbl.create 4 in
  let blocked_count = ref 0 in
  let arrive w id count live k =
    let b =
      match Hashtbl.find_opt barriers id with
      | Some b -> b
      | None ->
          let b = { arrived = 0; expected = count; waiters = [] } in
          Hashtbl.replace barriers id b;
          b
    in
    if b.arrived = 0 then b.expected <- count
    else if b.expected <> count then
      fail
        "kernel %s: barrier %d reached with inconsistent thread counts (%d \
         vs %d)"
        kernel_name id b.expected count;
    b.arrived <- b.arrived + live;
    b.waiters <- (w, k) :: b.waiters;
    incr blocked_count;
    if b.arrived > b.expected then
      fail "kernel %s: barrier %d over-subscribed (%d arrivals, expected %d)"
        kernel_name id b.arrived b.expected;
    if b.arrived = b.expected then begin
      (* release: all waiters become runnable *)
      let ws = List.rev b.waiters in
      b.arrived <- 0;
      b.waiters <- [];
      List.iter
        (fun (w, k) ->
          decr blocked_count;
          state.(w) <- None;
          Queue.add (`Resume (w, k)) pending)
        ws
    end
  in
  let step_result w = function
    | Finished -> state.(w) <- None
    | Blocked (id, count, live, k) ->
        state.(w) <- Some (Blocked (id, count, live, k));
        arrive w id count live k
  in
  let rec drain () =
    match Queue.take_opt pending with
    | Some (`Start w) ->
        step_result w (run_fiber (make_warp w));
        drain ()
    | Some (`Resume (w, k)) ->
        step_result w (Effect.Deep.continue k ());
        drain ()
    | None ->
        if !blocked_count > 0 then begin
          let desc =
            Hashtbl.fold
              (fun id b acc ->
                if b.waiters = [] then acc
                else
                  Fmt.str "barrier %d: %d/%d threads arrived" id b.arrived
                    b.expected
                  :: acc)
              barriers []
          in
          raise
            (Deadlock
               (Fmt.str
                  "kernel %s: barrier deadlock, %d warps blocked (%a)"
                  kernel_name !blocked_count
                  Fmt.(list ~sep:(any "; ") string)
                  (List.rev desc)))
        end
  in
  drain ()

(* ------------------------------------------------------------------ *)
(* Full launches                                                        *)
(* ------------------------------------------------------------------ *)

(** Launch [fn], already normalised (device calls inlined, declarations
    lifted: {!Hfuse_frontend.Inline.normalize_kernel}), over the grid,
    executing every block functionally and recording dynamic traces for
    the first [config.trace_blocks] blocks.  [args] bind the kernel
    parameters positionally. *)
let launch ?fault ?(loop_fuel = default_loop_fuel) (mem : Memory.t)
    ~(fn : Ast.fn) ~(args : Value.t list) (config : config) : result =
  (* chaos harness: a [sim_hang] draw (fresh key per launch) emulates a
     hung kernel by collapsing the fuel budget; the resulting watchdog
     trip is re-raised as the transient [Fault.Injected Sim_hang] so
     retry layers can distinguish it from a real runaway kernel.  The
     draw consults the caller's plan ([?fault], e.g. one server
     request's); without one nothing is injected. *)
  let injected_hang =
    Hfuse_fault.Fault.(
      enabled ?plan:fault ()
      && fires ?plan:fault Sim_hang ~key:(fresh_key Sim_hang))
  in
  let loop_fuel = if injected_hang then min loop_fuel injected_hang_fuel else loop_fuel in
  let bx, by, bz = config.block in
  let threads = bx * by * bz in
  if threads <= 0 || threads > 1024 then
    fail "block of %d threads out of range 1..1024" threads;
  if config.grid <= 0 then fail "grid must be positive (got %d)" config.grid;
  if List.length args <> List.length fn.f_params then
    fail "kernel %s expects %d arguments, got %d" fn.f_name
      (List.length fn.f_params)
      (List.length args);
  let layout, static_bytes = shared_layout fn.f_body in
  let smem_bytes = static_bytes + config.smem_dynamic in
  let warp_size = 32 in
  let warps = (threads + warp_size - 1) / warp_size in
  let exec_blocks =
    match config.exec_blocks with
    | None -> config.grid
    | Some n -> min config.grid (max 1 n)
  in
  let traced = min exec_blocks (max 0 config.trace_blocks) in
  let block_traces =
    (* a warp's trace starts small and doubles: at the default 1024 the
       zero-filled arrays cost more than recording a short kernel *)
    Array.init traced (fun _ ->
        Array.init warps (fun _ -> Trace.create ~capacity:64 ()))
  in
  (* names, literals and intrinsics resolve once per launch *)
  let kernel = Interp.resolve ~warp_size ~layout fn in
  for block_idx = 0 to exec_blocks - 1 do
    let shared = Bytes.make smem_bytes '\000' in
    (* only traced blocks probe the L1 model *)
    let tables =
      Interp.block_tables
        ~l1_sectors:(if block_idx < traced then config.l1_sectors else 0)
    in
    let make_warp w : unit -> unit =
      let base_tid = w * warp_size in
      let live_threads = min warp_size (threads - base_tid) in
      (* parameters bind by slot *)
      let slots, slot_types = Interp.frame kernel ~warp_size args in
      let trace =
        if block_idx < traced then Some block_traces.(block_idx).(w)
        else None
      in
      let ctx =
        {
          Interp.warp_size;
          warp_id = w;
          base_tid;
          live = Interp.full_of_threads live_threads;
          block_idx;
          block_dim = config.block;
          grid_dim = config.grid;
          slots;
          slot_types;
          mem;
          shared;
          trace;
          tables;
          builtins = Interp.builtins_create ();
          locals = [||];
          local_seq = 0;
          loop_fuel;
        }
      in
      fun () -> Interp.run_body ctx kernel
    in
    (try run_block ~warps ~kernel_name:fn.f_name make_warp
     with Interp.Fuel_exhausted ->
       if injected_hang then begin
         Hfuse_fault.Fault.note_injected Hfuse_fault.Fault.Sim_hang;
         raise (Hfuse_fault.Fault.Injected Hfuse_fault.Fault.Sim_hang)
       end
       else
         raise (Sim_timeout { kernel = fn.f_name; fuel = loop_fuel; block = block_idx }))
  done;
  {
    block_traces;
    grid = config.grid;
    threads_per_block = threads;
    warps_per_block = warps;
  }

(** Launch from a {!Hfuse_core.Kernel_info.t} whose kernel is normalised
    ({!Hfuse_core.Kernel_info.normalized}), the common harness path. *)
let launch_info ?exec_blocks ?(l1_sectors = 512) ?fault ?loop_fuel
    (mem : Memory.t) (info : Hfuse_core.Kernel_info.t)
    ~(args : Value.t list) ~(trace_blocks : int) : result =
  launch ?fault ?loop_fuel mem ~fn:info.fn ~args
    {
      grid = info.grid;
      block = info.block;
      smem_dynamic = info.smem_dynamic;
      trace_blocks;
      l1_sectors;
      exec_blocks;
    }
