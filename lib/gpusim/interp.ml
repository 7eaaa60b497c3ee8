(* Lock-step SIMT interpreter for the CUDA subset.

   Warps (32 lanes) execute statements together under an active-lane
   mask; divergent branches serialise both paths, loops iterate while any
   lane remains active, and [break]/[continue]/[return] are tracked as
   per-lane mask outcomes — the reconvergence-stack semantics of real
   SIMT hardware, expressed structurally.

   Two things happen at once during execution:
   - the *functional* result: values computed into simulated global /
     shared memory (used by the equivalence tests and by the host
     reference checks), and
   - the *dynamic trace*: one {!Instr.t} per warp instruction, with
     memory-coalescing and bank-conflict outcomes, consumed by
     {!Timing}.

   Barriers ([__syncthreads] and the partial [bar.sync id, n]) suspend
   the executing warp via an OCaml effect; the per-block scheduler in
   {!Launch} counts arrivals and resumes waiters once [n] threads have
   arrived — the PTX arrival-counter semantics the fused kernels rely
   on.  A barrier that can never be satisfied (e.g. [__syncthreads]
   surviving in a fused kernel) deadlocks, and the scheduler reports it
   as such.

   Lanes and tables.  An evaluation returns a [lanes] array that no one
   writes to afterwards, except a register's own array in the warp's
   env, which stores overwrite in place (so a post-increment copies the
   old value out before its store).  That makes two kinds of lanes
   safely shared: the builtin lanes ([threadIdx], [blockIdx],
   [blockDim], [gridDim]) are built once per warp, on first read, and
   returned to every later read.  The L1 model and the scratch tables
   of the coalescing analyses (sectors of one global access, words of
   one shared access, lanes per atomic address) are per block
   ({!block_tables}), shared by its warps and emptied before each use;
   only traced blocks size an L1.  Per-lane arithmetic dispatches on
   the operand constructors in {!Value}, never through [Ctype]. *)

open Cuda

exception Exec_error of string

(** Fuel watchdog trip: a warp burned through its per-launch loop fuel.
    Structured (not an [Exec_error] string) so {!Launch} can attach the
    launch context and report a {!Launch.Sim_timeout} instead of
    hanging a profiling worker on a runaway kernel. *)
exception Fuel_exhausted

let fail fmt = Fmt.kstr (fun s -> raise (Exec_error s)) fmt

(** Raised by [goto]; caught at the top level of the kernel body where
    labels live. *)
exception Goto_exn of string

(** Performed when a warp reaches a barrier: (barrier id, thread count,
    warp's live thread count). *)
type _ Effect.t +=
  | Barrier_eff : int * int * int -> unit Effect.t

type lanes = Value.t array

(** A per-block model of the SM's sectored L1 data cache: FIFO over
    32-byte sectors.  Shared by all warps of a block; global loads that
    hit avoid the DRAM latency and bandwidth charge in the timing
    model. *)
type l1_cache = {
  l1_table : (int, unit) Hashtbl.t;  (** key: buf * 2^24 + sector *)
  l1_fifo : int Queue.t;
  l1_cap : int;  (** capacity in sectors; <= 0 disables the cache *)
}

let l1_create ~sectors =
  {
    l1_table = Hashtbl.create (if sectors > 0 then 1024 else 1);
    l1_fifo = Queue.create ();
    l1_cap = sectors;
  }

let l1_key buf sector = (buf lsl 24) lor (sector land 0xFFFFFF)

(** [true] when the sector is already resident; inserts it otherwise. *)
let l1_probe (c : l1_cache) ~buf ~sector : bool =
  if c.l1_cap <= 0 then false
  else begin
    let key = l1_key buf sector in
    if Hashtbl.mem c.l1_table key then true
    else begin
      Hashtbl.replace c.l1_table key ();
      Queue.add key c.l1_fifo;
      if Queue.length c.l1_fifo > c.l1_cap then begin
        let victim = Queue.pop c.l1_fifo in
        Hashtbl.remove c.l1_table victim
      end;
      false
    end
  end

(** Per-block tables, shared by the block's warps (they run one at a
    time and never yield inside an access): the L1 model and the
    scratch tables of the coalescing analyses.  A scratch table is
    emptied with [Hashtbl.clear] before each use and holds at most one
    key per lane, so its 16 buckets never resize and it iterates exactly
    as a fresh table would. *)
type block_tables = {
  l1 : l1_cache;
  segs : (int * int, unit) Hashtbl.t;  (** (buf, sector) of one access *)
  seen : (int, unit) Hashtbl.t;  (** shared words of one access *)
  counts : (int * int, int) Hashtbl.t;  (** lanes per atomic address *)
}

let block_tables ~l1_sectors =
  {
    l1 = l1_create ~sectors:l1_sectors;
    segs = Hashtbl.create 16;
    seen = Hashtbl.create 16;
    counts = Hashtbl.create 16;
  }

(** Per-warp execution context. *)
type wctx = {
  warp_size : int;
  warp_id : int;
  base_tid : int;  (** linear thread id of lane 0 within the block *)
  live : int;  (** mask of lanes backed by real threads *)
  block_idx : int;
  block_dim : int * int * int;
  grid_dim : int;
  env : (string, lanes) Hashtbl.t;
  types : (string, Ctype.t) Hashtbl.t;
  mem : Memory.t;
  shared : Bytes.t;
  shared_layout : (string, int * Ctype.t) Hashtbl.t;
      (** shared array name -> (byte offset in block smem, element type) *)
  trace : Trace.t option;
  tables : block_tables;
  builtins : lanes array;
      (** the warp's [threadIdx]/[blockIdx]/[blockDim]/[gridDim] lanes,
          built on first use; shared by every read, never mutated *)
  locals : (int, Bytes.t) Hashtbl.t;
      (** per-lane local-array backing store, keyed by region id *)
  mutable local_seq : int;  (** next region id *)
  mutable loop_fuel : int;  (** guards against runaway loops *)
}

(** An empty builtin cache: one slot per builtin, filled on first use. *)
let builtins_create () : lanes array = Array.make 12 [||]

let tracing ctx = match ctx.trace with None -> false | Some _ -> true

let record ctx i =
  match ctx.trace with None -> () | Some t -> Trace.push t i

let lanes_make ctx v = Array.make ctx.warp_size v
let full_of_threads n = if n >= 63 then -1 else (1 lsl n) - 1

let iter_lanes ctx mask f =
  for l = 0 to ctx.warp_size - 1 do
    if mask land (1 lsl l) <> 0 then f l
  done

(** The lowest active lane, or -1 when no lane is active. *)
let first_lane ctx mask =
  let rec go l =
    if l >= ctx.warp_size then -1
    else if mask land (1 lsl l) <> 0 then l
    else go (l + 1)
  in
  go 0

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go mask 0

(* ------------------------------------------------------------------ *)
(* Coalescing / bank-conflict analysis                                  *)
(* ------------------------------------------------------------------ *)

(** 32-byte sector transactions of the active lanes' global addresses
    (distinct (buffer, sector) pairs), split into L1 misses and hits. *)
let global_transactions ctx mask (ptrs : Value.ptr array) ~probe_l1 :
    int * int =
  let segs = ctx.tables.segs in
  Hashtbl.clear segs;
  for l = 0 to ctx.warp_size - 1 do
    if mask land (1 lsl l) <> 0 then begin
      let p = ptrs.(l) in
      Hashtbl.replace segs (p.Value.buf, p.Value.off lsr 5) ()
    end
  done;
  let miss = ref 0 and hit = ref 0 in
  Hashtbl.iter
    (fun (buf, sector) () ->
      if probe_l1 && l1_probe ctx.tables.l1 ~buf ~sector then incr hit
      else incr miss)
    segs;
  if !miss + !hit = 0 then (1, 0) else (!miss, !hit)

(** Shared-memory bank-conflict degree: 32 banks of 4-byte words; lanes
    hitting distinct words in the same bank serialise; identical
    addresses broadcast. *)
let bank_conflict_degree ctx mask (ptrs : Value.ptr array) : int =
  let per_bank = Array.make 32 0 in
  let seen = ctx.tables.seen in
  Hashtbl.clear seen;
  for l = 0 to ctx.warp_size - 1 do
    if mask land (1 lsl l) <> 0 then begin
      let word = ptrs.(l).Value.off lsr 2 in
      if not (Hashtbl.mem seen word) then begin
        Hashtbl.replace seen word ();
        let bank = word land 31 in
        per_bank.(bank) <- per_bank.(bank) + 1
      end
    end
  done;
  Array.fold_left max 1 per_bank

(** Serialisation degree of atomics: the maximum number of active lanes
    addressing the same location. *)
let atomic_conflict_degree ctx mask (ptrs : Value.ptr array) : int =
  let counts = ctx.tables.counts in
  Hashtbl.clear counts;
  for l = 0 to ctx.warp_size - 1 do
    if mask land (1 lsl l) <> 0 then begin
      let key = (ptrs.(l).Value.buf, ptrs.(l).Value.off) in
      Hashtbl.replace counts key
        (1 + match Hashtbl.find counts key with n -> n | exception Not_found -> 0)
    end
  done;
  Hashtbl.fold (fun _ n acc -> max n acc) counts 1

(* ------------------------------------------------------------------ *)
(* Memory access                                                        *)
(* ------------------------------------------------------------------ *)

let resolve_bytes ctx (p : Value.ptr) : Bytes.t =
  match p.Value.space with
  | Value.Global -> Memory.buffer ctx.mem p.Value.buf
  | Value.Shared -> ctx.shared
  | Value.Local_mem -> (
      match Hashtbl.find_opt ctx.locals p.Value.buf with
      | Some b -> b
      | None -> fail "dangling local-memory pointer (region %d)" p.Value.buf)

let load_ptr ctx (p : Value.ptr) : Value.t =
  Memory.load_bytes (resolve_bytes ctx p) p.Value.off p.Value.elem

let store_ptr ctx (p : Value.ptr) (v : Value.t) : unit =
  Memory.store_bytes (resolve_bytes ctx p) p.Value.off p.Value.elem v

(** Record the trace event for a [load] ([is_load = true]) or store of
    the active lanes' pointers. *)
let record_access ctx mask (ptrs : Value.ptr array) ~is_load : unit =
  if tracing ctx then begin
    (* the first active lane's pointer names the space *)
    let l = first_lane ctx mask in
    if l >= 0 then
      match ptrs.(l).Value.space with
      | Value.Global ->
          if is_load then begin
            let miss, hit = global_transactions ctx mask ptrs ~probe_l1:true in
            record ctx (Instr.Ld_global (miss, hit))
          end
          else begin
            (* write-through, no-allocate: stores always pay DRAM bandwidth
               but do invalidate nothing and allocate nothing *)
            let miss, hit = global_transactions ctx mask ptrs ~probe_l1:false in
            record ctx (Instr.St_global (miss + hit))
          end
      | Value.Shared ->
          let n = bank_conflict_degree ctx mask ptrs in
          record ctx (if is_load then Instr.Ld_shared n else Instr.St_shared n)
      | Value.Local_mem ->
          (* per-thread arrays model the miners' register-resident state
             (the real kernels fully unroll); charge a register move, not
             a memory access *)
          record ctx Instr.Alu
  end

(* ------------------------------------------------------------------ *)
(* Builtins                                                             *)
(* ------------------------------------------------------------------ *)

let builtin_slot : Ast.builtin -> int = function
  | Ast.Thread_idx Ast.X -> 0
  | Ast.Thread_idx Ast.Y -> 1
  | Ast.Thread_idx Ast.Z -> 2
  | Ast.Block_idx Ast.X -> 3
  | Ast.Block_idx Ast.Y -> 4
  | Ast.Block_idx Ast.Z -> 5
  | Ast.Block_dim Ast.X -> 6
  | Ast.Block_dim Ast.Y -> 7
  | Ast.Block_dim Ast.Z -> 8
  | Ast.Grid_dim Ast.X -> 9
  | Ast.Grid_dim Ast.Y -> 10
  | Ast.Grid_dim Ast.Z -> 11

let build_builtin ctx (b : Ast.builtin) : lanes =
  let bx, by, bz = ctx.block_dim in
  let per_lane f =
    Array.init ctx.warp_size (fun l ->
        Value.UInt (Int32.of_int (f (ctx.base_tid + l))))
  in
  match b with
  | Ast.Thread_idx Ast.X -> per_lane (fun tid -> tid mod bx)
  | Ast.Thread_idx Ast.Y -> per_lane (fun tid -> tid / bx mod by)
  | Ast.Thread_idx Ast.Z -> per_lane (fun tid -> tid / (bx * by))
  | Ast.Block_idx Ast.X ->
      lanes_make ctx (Value.UInt (Int32.of_int ctx.block_idx))
  | Ast.Block_idx (Ast.Y | Ast.Z) -> lanes_make ctx (Value.UInt 0l)
  | Ast.Block_dim Ast.X -> lanes_make ctx (Value.UInt (Int32.of_int bx))
  | Ast.Block_dim Ast.Y -> lanes_make ctx (Value.UInt (Int32.of_int by))
  | Ast.Block_dim Ast.Z -> lanes_make ctx (Value.UInt (Int32.of_int bz))
  | Ast.Grid_dim Ast.X -> lanes_make ctx (Value.UInt (Int32.of_int ctx.grid_dim))
  | Ast.Grid_dim (Ast.Y | Ast.Z) -> lanes_make ctx (Value.UInt 1l)

(* Builtins are warp-invariant: each is built once per warp and the
   same lanes serve every read (no evaluation result is ever written
   to; stores write into the env's own arrays). *)
let eval_builtin ctx (b : Ast.builtin) : lanes =
  let i = builtin_slot b in
  let v = ctx.builtins.(i) in
  if Array.length v > 0 then v
  else begin
    let v = build_builtin ctx b in
    ctx.builtins.(i) <- v;
    v
  end

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                                *)
(* ------------------------------------------------------------------ *)

(** Division has no hardware unit on these GPUs: integer div/mod lowers
    to a ~12-instruction reciprocal sequence, fp32 division to an SFU
    reciprocal plus a short Newton refinement.  Recorded accordingly so
    index-arithmetic-heavy kernels show their real issue pressure. *)
let record_div ctx mask (out : Value.t array) : unit =
  if tracing ctx then begin
    let l = first_lane ctx mask in
    match if l >= 0 then out.(l) else Value.Int 0l with
    | Value.Float _ ->
        record ctx Instr.Sfu;
        for _ = 1 to 4 do record ctx Instr.Falu done
    | Value.Double _ -> for _ = 1 to 8 do record ctx Instr.Dalu done
    | Value.Long _ | Value.ULong _ ->
        for _ = 1 to 20 do record ctx Instr.Alu done
    | _ -> for _ = 1 to 12 do record ctx Instr.Alu done
  end

(** Record the issue cost of an arithmetic result: fp32/fp64 go to their
    pipes; 64-bit integer operations lower to two 32-bit instructions on
    both modelled architectures (as in real SASS), everything else is
    one ALU op. *)
let record_arith ctx mask (out : Value.t array) : unit =
  if tracing ctx then begin
    let l = first_lane ctx mask in
    match if l >= 0 then out.(l) else Value.Int 0l with
    | Value.Float _ -> record ctx Instr.Falu
    | Value.Double _ -> record ctx Instr.Dalu
    | Value.Long _ | Value.ULong _ ->
        record ctx Instr.Alu;
        record ctx Instr.Alu
    | _ -> record ctx Instr.Alu
  end

let truth_mask ctx mask (vs : lanes) : int =
  let m = ref 0 in
  for l = 0 to ctx.warp_size - 1 do
    if mask land (1 lsl l) <> 0 && Value.truthy vs.(l) then m := !m lor (1 lsl l)
  done;
  !m

let lookup_var ctx x : lanes =
  match Hashtbl.find ctx.env x with
  | v -> v
  | exception Not_found -> (
      (* shared arrays live in the layout, not the env *)
      match Hashtbl.find_opt ctx.shared_layout x with
      | Some (off, elem) ->
          lanes_make ctx
            (Value.Ptr { Value.space = Value.Shared; buf = 0; off; elem })
      | None -> fail "use of unbound variable %s" x)

(** An lvalue, resolved per-lane. *)
type lval =
  | Lvar of string
  | Lmem of Value.ptr array  (** per-lane pointers (valid at active lanes) *)

let rec eval ctx mask (e : Ast.expr) : lanes =
  match e with
  | Ast.Int_lit (v, ty) ->
      lanes_make ctx
        (match ty with
        | Ctype.Int -> Value.Int (Int64.to_int32 v)
        | Ctype.UInt -> Value.UInt (Int64.to_int32 v)
        | Ctype.Long -> Value.Long v
        | Ctype.ULong -> Value.ULong v
        | _ -> Value.Int (Int64.to_int32 v))
  | Ast.Float_lit (v, ty) ->
      lanes_make ctx
        (if ty = Ctype.Float then Value.Float (Value.f32 v)
         else Value.Double v)
  | Ast.Bool_lit b -> lanes_make ctx (Value.Bool b)
  | Ast.Var x -> lookup_var ctx x
  | Ast.Builtin b -> eval_builtin ctx b
  | Ast.Unop (op, a) ->
      let va = eval ctx mask a in
      let out = lanes_make ctx (Value.Int 0l) in
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 then out.(l) <- Value.unop op va.(l)
      done;
      record_arith ctx mask out;
      out
  | Ast.Binop (Ast.Land, a, b) ->
      let va = eval ctx mask a in
      let need_b = truth_mask ctx mask va in
      let vb =
        if need_b = 0 then lanes_make ctx (Value.Bool false)
        else eval ctx need_b b
      in
      let out = lanes_make ctx (Value.Bool false) in
      iter_lanes ctx mask (fun l ->
          out.(l) <-
            Value.Bool
              (Value.truthy va.(l)
              && mask land need_b land (1 lsl l) <> 0
              && Value.truthy vb.(l)));
      record ctx Instr.Alu;
      out
  | Ast.Binop (Ast.Lor, a, b) ->
      let va = eval ctx mask a in
      let a_true = truth_mask ctx mask va in
      let need_b = mask land lnot a_true in
      let vb =
        if need_b = 0 then lanes_make ctx (Value.Bool false)
        else eval ctx need_b b
      in
      let out = lanes_make ctx (Value.Bool false) in
      iter_lanes ctx mask (fun l ->
          out.(l) <-
            Value.Bool
              (Value.truthy va.(l)
              || (need_b land (1 lsl l) <> 0 && Value.truthy vb.(l))));
      record ctx Instr.Alu;
      out
  | Ast.Binop (op, a, b) ->
      let va = eval ctx mask a in
      let vb = eval ctx mask b in
      let out = lanes_make ctx (Value.Int 0l) in
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 then
          out.(l) <- Value.binop op va.(l) vb.(l)
      done;
      (match op with
      | Ast.Div | Ast.Mod -> record_div ctx mask out
      | _ -> record_arith ctx mask out);
      out
  | Ast.Assign (lhs, rhs) ->
      let v = eval ctx mask rhs in
      assign ctx mask lhs v
  | Ast.Op_assign (op, lhs, rhs) ->
      let lv = eval_lval ctx mask lhs in
      let cur = load_lval ctx mask lv in
      let vb = eval ctx mask rhs in
      let out = lanes_make ctx (Value.Int 0l) in
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 then
          out.(l) <- Value.binop op cur.(l) vb.(l)
      done;
      (match op with
      | Ast.Div | Ast.Mod -> record_div ctx mask out
      | _ -> record_arith ctx mask out);
      store_lval ctx mask lv out
  | Ast.Incdec { pre; inc; lval } ->
      let lv = eval_lval ctx mask lval in
      let cur = load_lval ctx mask lv in
      (* a register's lanes are the env's own array, which the store
         below overwrites: a post-op keeps a copy of the old value *)
      let old = match lv with Lvar _ when not pre -> Array.copy cur | _ -> cur in
      let op = if inc then Ast.Add else Ast.Sub in
      let next = lanes_make ctx (Value.Int 0l) in
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 then
          next.(l) <- Value.binop op cur.(l) (Value.Int 1l)
      done;
      record ctx Instr.Alu;
      let stored = store_lval ctx mask lv next in
      if pre then stored else old
  | Ast.Ternary (c, a, b) ->
      let vc = eval ctx mask c in
      let mt = truth_mask ctx mask vc in
      let mf = mask land lnot mt in
      let va = if mt <> 0 then eval ctx mt a else lanes_make ctx (Value.Int 0l) in
      let vb = if mf <> 0 then eval ctx mf b else lanes_make ctx (Value.Int 0l) in
      let out = lanes_make ctx (Value.Int 0l) in
      iter_lanes ctx mask (fun l ->
          out.(l) <- (if mt land (1 lsl l) <> 0 then va.(l) else vb.(l)));
      record ctx Instr.Alu;
      out
  | Ast.Call (f, args) -> eval_call ctx mask f args
  | Ast.Index _ | Ast.Deref _ -> (
      let lv = eval_lval ctx mask e in
      match lv with
      | Lmem ptrs ->
          let out = lanes_make ctx (Value.Int 0l) in
          for l = 0 to ctx.warp_size - 1 do
            if mask land (1 lsl l) <> 0 then out.(l) <- load_ptr ctx ptrs.(l)
          done;
          record_access ctx mask ptrs ~is_load:true;
          out
      | Lvar _ -> assert false)
  | Ast.Addr_of lhs -> (
      match eval_lval ctx mask lhs with
      | Lmem ptrs ->
          Array.map (fun p -> Value.Ptr p) ptrs
      | Lvar x -> fail "cannot take the address of register variable %s" x)
  | Ast.Cast (ty, a) ->
      let va = eval ctx mask a in
      let out = lanes_make ctx (Value.Int 0l) in
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 then out.(l) <- Value.convert ty va.(l)
      done;
      (* pointer reinterpretation is free; arithmetic conversions cost *)
      (match ty with
      | Ctype.Ptr _ -> ()
      | _ -> record ctx Instr.Alu);
      out

and eval_lval ctx mask (e : Ast.expr) : lval =
  match e with
  | Ast.Var x -> (
      match Hashtbl.find_opt ctx.shared_layout x with
      | Some (off, elem) ->
          Lmem
            (lanes_make ctx
               { Value.space = Value.Shared; buf = 0; off; elem })
      | None -> Lvar x)
  | Ast.Index (base, idx) -> (
      let vb = eval ctx mask base in
      let vi = eval ctx mask idx in
      record ctx Instr.Alu (* address computation *);
      let ptrs =
        Array.make ctx.warp_size
          { Value.space = Value.Shared; buf = 0; off = 0; elem = Ctype.Int }
      in
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 then
          match vb.(l) with
          | Value.Ptr p ->
              ptrs.(l) <-
                {
                  p with
                  Value.off =
                    p.Value.off
                    + (Value.to_int vi.(l) * Ctype.sizeof p.Value.elem);
                }
          | v ->
              fail "subscript of non-pointer value %a (in %s)" Value.pp v
                (Pretty.expr_to_string e)
      done;
      Lmem ptrs)
  | Ast.Deref e -> (
      let vb = eval ctx mask e in
      let ptrs =
        Array.make ctx.warp_size
          { Value.space = Value.Shared; buf = 0; off = 0; elem = Ctype.Int }
      in
      iter_lanes ctx mask (fun l ->
          match vb.(l) with
          | Value.Ptr p -> ptrs.(l) <- p
          | v -> fail "dereference of non-pointer value %a" Value.pp v);
      Lmem ptrs)
  | e -> fail "not an lvalue: %s" (Pretty.expr_to_string e)

and load_lval ctx mask (lv : lval) : lanes =
  match lv with
  | Lvar x -> lookup_var ctx x
  | Lmem ptrs ->
      let out = lanes_make ctx (Value.Int 0l) in
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 then out.(l) <- load_ptr ctx ptrs.(l)
      done;
      record_access ctx mask ptrs ~is_load:true;
      out

(** Store [v] through [lv] at the active lanes; returns the stored
    (converted) lanes. *)
and store_lval ctx mask (lv : lval) (v : lanes) : lanes =
  match lv with
  | Lvar x ->
      let cur =
        match Hashtbl.find ctx.env x with
        | a -> a
        | exception Not_found -> fail "assignment to unbound variable %s" x
      in
      (match Hashtbl.find ctx.types x with
      | ty when Ctype.is_arith ty ->
          for l = 0 to ctx.warp_size - 1 do
            if mask land (1 lsl l) <> 0 then cur.(l) <- Value.convert ty v.(l)
          done
      | _ | (exception Not_found) ->
          for l = 0 to ctx.warp_size - 1 do
            if mask land (1 lsl l) <> 0 then cur.(l) <- v.(l)
          done);
      cur
  | Lmem ptrs ->
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 then store_ptr ctx ptrs.(l) v.(l)
      done;
      record_access ctx mask ptrs ~is_load:false;
      v

and assign ctx mask lhs (v : lanes) : lanes =
  let lv = eval_lval ctx mask lhs in
  store_lval ctx mask lv v

(* ------------------------------------------------------------------ *)
(* Intrinsics                                                           *)
(* ------------------------------------------------------------------ *)

and unop_float ctx mask f args ff latcls =
  match args with
  | [ a ] ->
      let va = eval ctx mask a in
      let out = lanes_make ctx (Value.Float 0.) in
      for l = 0 to ctx.warp_size - 1 do
        if mask land (1 lsl l) <> 0 then
          out.(l) <- Value.Float (Value.f32 (ff (Value.to_float va.(l))))
      done;
      record ctx latcls;
      out
  | _ -> fail "%s expects 1 argument" f

and eval_call ctx mask (f : string) (args : Ast.expr list) : lanes =
  match f with
  | "min" | "max" -> (
      match args with
      | [ a; b ] ->
          let va = eval ctx mask a and vb = eval ctx mask b in
          let out = lanes_make ctx (Value.Int 0l) in
          let op = if f = "min" then Ast.Lt else Ast.Gt in
          iter_lanes ctx mask (fun l ->
              out.(l) <-
                (if Value.truthy (Value.binop op va.(l) vb.(l)) then va.(l)
                 else vb.(l)));
          record_arith ctx mask out;
          out
      | _ -> fail "%s expects 2 arguments" f)
  | "fminf" | "fmaxf" -> (
      match args with
      | [ a; b ] ->
          let va = eval ctx mask a and vb = eval ctx mask b in
          let out = lanes_make ctx (Value.Float 0.) in
          iter_lanes ctx mask (fun l ->
              let x = Value.to_float va.(l) and y = Value.to_float vb.(l) in
              out.(l) <-
                Value.Float (Value.f32 (if f = "fminf" then Float.min x y
                                        else Float.max x y)));
          record ctx Instr.Falu;
          out
      | _ -> fail "%s expects 2 arguments" f)
  | "fabsf" -> unop_float ctx mask f args Float.abs Instr.Falu
  | "sqrtf" -> unop_float ctx mask f args sqrt Instr.Sfu
  | "rsqrtf" -> unop_float ctx mask f args (fun x -> 1.0 /. sqrt x) Instr.Sfu
  | "expf" -> unop_float ctx mask f args exp Instr.Sfu
  | "logf" -> unop_float ctx mask f args log Instr.Sfu
  | "floorf" -> unop_float ctx mask f args Float.floor Instr.Falu
  | "ceilf" -> unop_float ctx mask f args Float.ceil Instr.Falu
  | "roundf" -> unop_float ctx mask f args Float.round Instr.Falu
  | "getMSB" -> (
      match args with
      | [ a ] ->
          let va = eval ctx mask a in
          let out = lanes_make ctx (Value.Int 0l) in
          iter_lanes ctx mask (fun l ->
              let v = Value.to_int va.(l) in
              if v <= 0 then fail "getMSB of non-positive value %d" v;
              let rec msb v acc = if v <= 1 then acc else msb (v lsr 1) (acc + 1) in
              out.(l) <- Value.Int (Int32.of_int (msb v 0)));
          record ctx Instr.Alu;
          out
      | _ -> fail "getMSB expects 1 argument")
  | "rotr32" | "rotl32" -> (
      match args with
      | [ a; b ] ->
          let va = eval ctx mask a and vb = eval ctx mask b in
          let out = lanes_make ctx (Value.UInt 0l) in
          iter_lanes ctx mask (fun l ->
              let x = Int64.to_int32 (Value.to_i64 va.(l)) in
              let n = Value.to_int vb.(l) land 31 in
              let n = if f = "rotl32" then (32 - n) land 31 else n in
              let r =
                Int32.logor
                  (Int32.shift_right_logical x n)
                  (Int32.shift_left x ((32 - n) land 31))
              in
              out.(l) <- Value.UInt r);
          record ctx Instr.Alu;
          out
      | _ -> fail "%s expects 2 arguments" f)
  | "rotr64" | "rotl64" -> (
      match args with
      | [ a; b ] ->
          let va = eval ctx mask a and vb = eval ctx mask b in
          let out = lanes_make ctx (Value.ULong 0L) in
          iter_lanes ctx mask (fun l ->
              let x = Value.to_i64 va.(l) in
              let n = Value.to_int vb.(l) land 63 in
              let n = if f = "rotl64" then (64 - n) land 63 else n in
              let r =
                Int64.logor
                  (Int64.shift_right_logical x n)
                  (Int64.shift_left x ((64 - n) land 63))
              in
              out.(l) <- Value.ULong r);
          record ctx Instr.Alu;
          out
      | _ -> fail "%s expects 2 arguments" f)
  | "WARP_SHFL_XOR" | "WARP_SHFL_DOWN" | "__shfl_xor_sync" | "__shfl_down_sync"
  | "__shfl_sync" -> (
      (* normalise arguments: the __sync variants carry a leading member
         mask which we drop *)
      let args =
        match f with
        | "__shfl_xor_sync" | "__shfl_down_sync" | "__shfl_sync" ->
            List.tl args
        | _ -> args
      in
      match args with
      | v :: delta :: _rest ->
          let vv = eval ctx mask v in
          let vd = eval ctx mask delta in
          let out = lanes_make ctx (Value.Int 0l) in
          iter_lanes ctx mask (fun l ->
              let d = Value.to_int vd.(l) in
              let src =
                match f with
                | "WARP_SHFL_XOR" | "__shfl_xor_sync" -> l lxor d
                | "WARP_SHFL_DOWN" | "__shfl_down_sync" -> l + d
                | _ -> d (* __shfl_sync: absolute lane *)
              in
              let src = if src < 0 || src >= ctx.warp_size then l else src in
              out.(l) <- vv.(src));
          record ctx Instr.Shfl;
          out
      | _ -> fail "%s expects at least 2 value arguments" f)
  | "atomicAdd" | "atomicMax" | "atomicMin" | "atomicExch" -> (
      match args with
      | [ addr; v ] ->
          let lv = eval_lval ctx mask (Ast.Deref addr) in
          let ptrs =
            match lv with
            | Lmem p -> p
            | Lvar x -> fail "atomic on register variable %s" x
          in
          let vv = eval ctx mask v in
          let out = lanes_make ctx (Value.Int 0l) in
          (* lanes apply in lane order — a legal serialisation *)
          iter_lanes ctx mask (fun l ->
              let p = ptrs.(l) in
              let old = load_ptr ctx p in
              out.(l) <- old;
              let neu =
                match f with
                | "atomicAdd" -> Value.binop Ast.Add old vv.(l)
                | "atomicMax" ->
                    if Value.truthy (Value.binop Ast.Gt vv.(l) old) then vv.(l)
                    else old
                | "atomicMin" ->
                    if Value.truthy (Value.binop Ast.Lt vv.(l) old) then vv.(l)
                    else old
                | _ -> vv.(l)
              in
              store_ptr ctx p neu);
          (if tracing ctx then
             let degree = atomic_conflict_degree ctx mask ptrs in
             let l = first_lane ctx mask in
             match if l >= 0 then ptrs.(l).Value.space else Value.Global with
             | Value.Shared -> record ctx (Instr.Atom_shared degree)
             | _ -> record ctx (Instr.Atom_global degree));
          out
      | _ -> fail "%s expects 2 arguments" f)
  | "atomicCAS" -> (
      match args with
      | [ addr; cmp; v ] ->
          let lv = eval_lval ctx mask (Ast.Deref addr) in
          let ptrs =
            match lv with
            | Lmem p -> p
            | Lvar x -> fail "atomic on register variable %s" x
          in
          let vc = eval ctx mask cmp in
          let vv = eval ctx mask v in
          let out = lanes_make ctx (Value.Int 0l) in
          iter_lanes ctx mask (fun l ->
              let p = ptrs.(l) in
              let old = load_ptr ctx p in
              out.(l) <- old;
              if Value.truthy (Value.binop Ast.Eq old vc.(l)) then
                store_ptr ctx p vv.(l));
          if tracing ctx then
            record ctx (Instr.Atom_global (atomic_conflict_degree ctx mask ptrs));
          out
      | _ -> fail "atomicCAS expects 3 arguments")
  | "__ballot_sync" -> (
      match args with
      | [ _m; pred ] ->
          let vp = eval ctx mask pred in
          let bits = truth_mask ctx mask vp in
          record ctx Instr.Shfl;
          lanes_make ctx (Value.UInt (Int32.of_int bits))
      | _ -> fail "__ballot_sync expects 2 arguments")
  | "__syncwarp" ->
      record ctx Instr.Alu;
      lanes_make ctx (Value.Int 0l)
  | "__threadfence" | "__threadfence_block" ->
      record ctx Instr.Alu;
      lanes_make ctx (Value.Int 0l)
  | f -> fail "call to unknown or uninlined function %s" f

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)
(* ------------------------------------------------------------------ *)

type outcome = { fall : int; brk : int; cont : int; ret : int }

let pure_fall mask = { fall = mask; brk = 0; cont = 0; ret = 0 }

let burn_fuel ctx =
  ctx.loop_fuel <- ctx.loop_fuel - 1;
  if ctx.loop_fuel <= 0 then raise Fuel_exhausted

let exec_decl ctx mask (d : Ast.decl) : unit =
  match d.d_storage with
  | Ast.Shared | Ast.Shared_extern ->
      (* layout assigned at block setup; nothing to execute *)
      ()
  | Ast.Local -> (
      Hashtbl.replace ctx.types d.d_name d.d_type;
      (match d.d_type with
      | Ctype.Array (el, Some n) ->
          (* per-lane backing store; each lane gets its own region *)
          if not (Hashtbl.mem ctx.env d.d_name) then begin
            let bytes = n * Ctype.sizeof el in
            let ptrs =
              Array.init ctx.warp_size (fun _ ->
                  let id = ctx.local_seq in
                  ctx.local_seq <- ctx.local_seq + 1;
                  Hashtbl.replace ctx.locals id (Bytes.make bytes '\000');
                  Value.Ptr
                    { Value.space = Value.Local_mem; buf = id; off = 0; elem = el })
            in
            Hashtbl.replace ctx.env d.d_name ptrs
          end
      | Ctype.Array (_, None) ->
          fail "local array %s must have a size" d.d_name
      | _ -> ());
      (if (match d.d_type with Ctype.Array _ -> false | _ -> true)
          && not (Hashtbl.mem ctx.env d.d_name) then
         let init_val =
           match d.d_type with
           | Ctype.Ptr elem ->
               (* an uninitialised pointer; poison until assigned *)
               Value.Ptr { Value.space = Value.Shared; buf = 0; off = 0; elem }
           | t -> ( try Value.zero t with _ -> Value.Int 0l)
         in
         Hashtbl.replace ctx.env d.d_name
           (Array.make ctx.warp_size init_val));
      match d.d_init with
      | None -> ()
      | Some e ->
          let v = eval ctx mask e in
          ignore (store_lval ctx mask (Lvar d.d_name) v))

let rec exec_stmts ctx mask (stmts : Ast.stmt list) : outcome =
  exec_seq ctx mask 0 0 0 stmts

(* statements in order while any lane falls through *)
and exec_seq ctx alive brk cont ret = function
  | s :: rest when alive <> 0 ->
      let out = exec_stmt ctx alive s in
      exec_seq ctx out.fall (brk lor out.brk) (cont lor out.cont)
        (ret lor out.ret) rest
  | _ -> { fall = alive; brk; cont; ret }

and exec_stmt ctx mask (s : Ast.stmt) : outcome =
  match s.s with
  | Ast.Nop | Ast.Label _ -> pure_fall mask
  | Ast.Decl d ->
      exec_decl ctx mask d;
      pure_fall mask
  | Ast.Expr e ->
      ignore (eval ctx mask e);
      pure_fall mask
  | Ast.If (c, t, e) ->
      let vc = eval ctx mask c in
      record ctx Instr.Branch;
      let mt = truth_mask ctx mask vc in
      let mf = mask land lnot mt in
      let out_t =
        if mt <> 0 then exec_stmts ctx mt t
        else { fall = 0; brk = 0; cont = 0; ret = 0 }
      in
      let out_e =
        if mf <> 0 then exec_stmts ctx mf e
        else { fall = 0; brk = 0; cont = 0; ret = 0 }
      in
      {
        fall = out_t.fall lor out_e.fall;
        brk = out_t.brk lor out_e.brk;
        cont = out_t.cont lor out_e.cont;
        ret = out_t.ret lor out_e.ret;
      }
  | Ast.While (c, body) -> exec_loop ctx mask ~init:None ~cond:(Some c) ~step:None body
  | Ast.Do_while (body, c) ->
      (* execute body once, then behave as a while *)
      let out = exec_stmts ctx mask body in
      let ret = out.ret and exited = out.brk in
      let alive = out.fall lor out.cont in
      let rest =
        if alive = 0 then { fall = 0; brk = 0; cont = 0; ret = 0 }
        else exec_loop ctx alive ~init:None ~cond:(Some c) ~step:None body
      in
      {
        fall = exited lor rest.fall;
        brk = 0;
        cont = 0;
        ret = ret lor rest.ret;
      }
  | Ast.For (init, cond, step, body) ->
      (match init with
      | None -> ()
      | Some (Ast.For_expr e) -> ignore (eval ctx mask e)
      | Some (Ast.For_decl ds) -> List.iter (exec_decl ctx mask) ds);
      exec_loop ctx mask ~init:None ~cond ~step body
  | Ast.Return None ->
      { fall = 0; brk = 0; cont = 0; ret = mask }
  | Ast.Return (Some e) ->
      ignore (eval ctx mask e);
      { fall = 0; brk = 0; cont = 0; ret = mask }
  | Ast.Break -> { fall = 0; brk = mask; cont = 0; ret = 0 }
  | Ast.Continue -> { fall = 0; brk = 0; cont = mask; ret = 0 }
  | Ast.Sync ->
      let bx, by, bz = ctx.block_dim in
      sync ctx mask ~id:0 ~count:(bx * by * bz);
      pure_fall mask
  | Ast.Bar_sync (id, count) ->
      sync ctx mask ~id ~count;
      pure_fall mask
  | Ast.Goto l ->
      if mask <> ctx.live then
        fail
          "divergent goto %s (mask %x, live %x): HFuse emits only \
           warp-uniform gotos"
          l mask ctx.live;
      raise (Goto_exn l)
  | Ast.Block b -> exec_stmts ctx mask b

and sync ctx mask ~id ~count =
  if mask <> ctx.live then
    fail "barrier (id %d) reached with divergent mask %x (live %x)" id mask
      ctx.live;
  record ctx (Instr.Bar (id, count));
  Effect.perform (Barrier_eff (id, count, popcount ctx.live))

and exec_loop ctx mask ~init:_ ~cond ~step body : outcome =
  let alive = ref mask in
  let exited = ref 0 and ret = ref 0 in
  (try
     while !alive <> 0 do
       burn_fuel ctx;
       (* condition *)
       let active =
         match cond with
         | None -> !alive
         | Some c ->
             let vc = eval ctx !alive c in
             record ctx Instr.Branch;
             let t = truth_mask ctx !alive vc in
             exited := !exited lor (!alive land lnot t);
             t
       in
       if active = 0 then raise Exit;
       let out = exec_stmts ctx active body in
       ret := !ret lor out.ret;
       exited := !exited lor out.brk;
       let continuing = out.fall lor out.cont in
       (match step with
       | Some e when continuing <> 0 -> ignore (eval ctx continuing e)
       | _ -> ());
       alive := continuing
     done
   with Exit -> ());
  { fall = !exited; brk = 0; cont = 0; ret = !ret }

(* ------------------------------------------------------------------ *)
(* Top level: kernel body with goto/label resolution                    *)
(* ------------------------------------------------------------------ *)

(** Execute a kernel body for one warp.  Labels are resolved at the top
    statement level (where HFuse places them). *)
let run_body ctx (stmts : Ast.stmt list) : unit =
  let rec go stmts =
    match exec_stmts ctx ctx.live stmts with
    | _ -> ()
    | exception Goto_exn l ->
        let rec find = function
          | [] -> fail "goto to label %s not found at kernel top level" l
          | { Ast.s = Ast.Label l'; _ } :: rest when String.equal l l' -> rest
          | _ :: rest -> find rest
        in
        go (find stmts)
  in
  go stmts
