(* Diagnostic-driven repair of rejected fusions.

   The fusion-safety verifier (lib/analysis) refuses unsafe fusions with
   a structured [Diag.kind] list.  Following GPURepair's
   insert/remove-barrier approach and the source paper's resource-aware
   transformations, each kind maps to one minimal transformation:

     barrier-id-collision      renumber the second kernel's bar.sync id
     barrier-id-out-of-range   renumber onto a free id in 1..15
     barrier-count-unaligned   set the count to the side's partition
     barrier-count-mismatch    set the count to the side's partition
     full-barrier-in-partition rewrite __syncthreads() to bar.sync
     shared-race (error)       leader-elect the block-uniform write and
                               barrier behind it
     shared-overlap            re-base the dynamic regions serially
     over-budget (registers)   force the largest residency-restoring
                               register bound
     over-budget (smem)        shrink the inter-kernel padding
     divergent-barrier         unserviceable (control restructuring is
                               out of scope)

   The engine then re-verifies and iterates to a bounded fixpoint.
   Every failure mode fails closed: the caller keeps its rejection.

   Soundness is NOT established here — a statically clean repair can
   still change observable bytes (e.g. electing thread 0 as the writer
   of a genuinely thread-dependent store).  Admission paths run the
   differential oracle on every repair; this library stays free of
   simulator dependencies so it can be used from the fuzzer, the
   search harness and the daemon alike. *)

open Cuda
module Diag = Hfuse_analysis.Diag
module Verifier = Hfuse_analysis.Verifier
module Limits = Hfuse_analysis.Limits
module Hfuse = Hfuse_core.Hfuse
module Kernel_info = Hfuse_core.Kernel_info
module Barrier = Hfuse_core.Barrier
module SS = Ast_util.StrSet

type action = { a_tag : string; a_detail : string }

let pp_action ppf a = Fmt.pf ppf "repair[%s]: %s" a.a_tag a.a_detail
let action tag fmt = Fmt.kstr (fun s -> { a_tag = tag; a_detail = s }) fmt

type repaired = {
  fused : Hfuse.t;
  reg_bound : int option;
  actions : action list;
  rounds : int;
  residual : Diag.t list;
}

type failure =
  | Unserviceable of Diag.t list
  | No_progress of Diag.t list
  | Budget_exhausted of Diag.t list
  | Generate_failed of string

let pp_failure ppf = function
  | Unserviceable ds ->
      Fmt.pf ppf "unserviceable: no repair strategy for %a"
        Fmt.(list ~sep:comma string)
        (List.sort_uniq compare
           (List.map (fun (d : Diag.t) -> Diag.kind_tag d.kind) ds))
  | No_progress _ -> Fmt.string ppf "no progress: repairs left errors standing"
  | Budget_exhausted _ -> Fmt.string ppf "round budget exhausted"
  | Generate_failed msg -> Fmt.pf ppf "regeneration failed: %s" msg

let default_rounds = 8

(* -- statement-level transformations (shared by both engines) -------- *)

(** [bar.sync from_id, c] becomes [bar.sync to_id, c]. *)
let renumber_barrier ~from_id ~to_id stmts =
  Ast_util.map_stmts
    (fun st ->
      match st.Ast.s with
      | Ast.Bar_sync (id, c) when id = from_id ->
          [ { st with s = Ast.Bar_sync (to_id, c) } ]
      | _ -> [ st ])
    stmts

(** Every [bar.sync id, _] gets thread count [count]. *)
let set_barrier_count ~id ~count stmts =
  Ast_util.map_stmts
    (fun st ->
      match st.Ast.s with
      | Ast.Bar_sync (i, c) when i = id && c <> count ->
          [ { st with s = Ast.Bar_sync (i, count) } ]
      | _ -> [ st ])
    stmts

let has_barrier_id ~id stmts =
  Ast_util.fold_stmts
    (fun acc st ->
      acc || match st.Ast.s with Ast.Bar_sync (i, _) -> i = id | _ -> false)
    false stmts

(* the leader-election idiom the verifier's race check accepts: an
   equality with exactly one thread-dependent operand *)
let singleton_guard ~tainted guards =
  List.exists
    (fun g ->
      Ast_util.fold_expr
        (fun acc e ->
          acc
          ||
          match e with
          | Ast.Binop (Ast.Eq, a, b) ->
              Ast_util.expr_thread_dependent ~tainted a
              <> Ast_util.expr_thread_dependent ~tainted b
          | _ -> false)
        false g)
    guards

(** Wrap every top-level statement performing an unguarded non-atomic
    write to a [shared] array at a block-uniform index in
    [if (threadIdx.x == 0) { ... }], with [mk_barrier ()] after it so
    later readers observe the elected writer's store.  Statements that
    already contain a barrier are left alone (guarding them would
    create divergent-barrier deadlocks).  Returns the rewritten body
    and how many statements were wrapped. *)
let guard_uniform_shared_writes ?seeds ~shared ~mk_barrier body =
  let tainted = Ast_util.thread_dependent_vars ?seeds body in
  let leader =
    Ast.Binop (Ast.Eq, Ast.Builtin (Ast.Thread_idx Ast.X), Ast.int_lit 0)
  in
  let wrapped = ref 0 in
  let body' =
    List.concat_map
      (fun st ->
        let racing (a : Ast_util.access) =
          SS.mem a.acc_array shared
          && a.acc_kind = `Write
          && (not (Ast_util.expr_thread_dependent ~tainted a.acc_index))
          && not (singleton_guard ~tainted a.acc_guards)
        in
        if
          List.exists racing (Ast_util.array_accesses [ st ])
          && not (Ast_util.has_barrier [ st ])
        then begin
          incr wrapped;
          [ Ast.mk_stmt (Ast.If (leader, [ st ], [])); mk_barrier () ]
        end
        else [ st ])
      body
  in
  (body', !wrapped)

let shared_decl_names body =
  List.fold_left
    (fun acc (d : Ast.decl) ->
      match d.d_storage with
      | Ast.Shared | Ast.Shared_extern -> SS.add d.d_name acc
      | Ast.Local -> acc)
    SS.empty
    (Ast_util.collect_decls body)

(* -- resource strategies --------------------------------------------- *)

(** The largest granularity-aligned per-thread register allocation that
    lets at least one fused block fit on the SM; [None] when no bound
    below the current effective allocation restores residency (another
    resource binds, or the bound would not shrink anything). *)
let residency_reg_bound (limits : Limits.t) ~threads ~smem ~effective_regs :
    int option =
  let g = limits.reg_alloc_granularity in
  let r = limits.regs_per_sm / max 1 threads / g * g in
  let r = min r limits.max_regs_per_thread in
  if r < g || r >= effective_regs then None
  else if Limits.blocks_per_sm limits ~regs:r ~threads ~smem = 0 then None
  else Some r

(* -- kernel-pair repair (the search path) ---------------------------- *)

type state = {
  k1 : Kernel_info.t;
  k2 : Kernel_info.t;
  reg_bound : int option;
  smem_align : int;  (** inter-kernel padding alignment fed to generate *)
  acts : action list;  (** reversed *)
}

let with_body (k : Kernel_info.t) body : Kernel_info.t =
  let fn = { k.fn with Ast.f_body = body } in
  let functions =
    List.map
      (fun (f : Ast.fn) -> if String.equal f.f_name fn.f_name then fn else f)
      k.prog.Ast.functions
  in
  { k with fn; prog = { k.prog with functions } }

(* a fresh barrier id for renumbering must leave two ids free for the
   fresh per-side ids generate itself assigns *)
let renumber_target st ~extra =
  let used =
    extra
    @ Barrier.used_ids st.k1.fn.f_body
    @ Barrier.used_ids st.k2.fn.f_body
  in
  match Barrier.fresh_id used with
  | exception Barrier.Invalid_barrier _ -> None
  | id -> (
      match Barrier.fresh_id (id :: used) with
      | exception Barrier.Invalid_barrier _ -> None
      | id2 -> (
          match Barrier.fresh_id (id2 :: id :: used) with
          | exception Barrier.Invalid_barrier _ -> None
          | _ -> Some id))

(** Apply one round of strategies to the input pair.  Returns the new
    state and whether anything changed. *)
let apply_pair_strategies (limits : Limits.t) (st : state)
    (errs : Diag.t list) : state * bool =
  let st = ref st and changed = ref false in
  let update ?(did = true) act s' =
    if did then begin
      st := { s' with acts = act :: s'.acts };
      changed := true
    end
  in
  let renumber ~which ~from_id =
    let s = !st in
    let body =
      match which with `K1 -> s.k1.fn.Ast.f_body | `K2 -> s.k2.fn.Ast.f_body
    in
    if not (has_barrier_id ~id:from_id body) then ()
    else
      match renumber_target s ~extra:[] with
      | None -> ()
      | Some to_id ->
          let body' = renumber_barrier ~from_id ~to_id body in
          let name =
            match which with
            | `K1 -> s.k1.fn.Ast.f_name
            | `K2 -> s.k2.fn.Ast.f_name
          in
          let s' =
            match which with
            | `K1 -> { s with k1 = with_body s.k1 body' }
            | `K2 -> { s with k2 = with_body s.k2 body' }
          in
          update
            (action "renumber-barrier" "%s: bar.sync id %d -> %d" name
               from_id to_id)
            s'
  in
  let set_count ~id ~count =
    (* rewrite in whichever input carries the offending barrier, to that
       kernel's own partition width *)
    List.iter
      (fun which ->
        let s = !st in
        let k = match which with `K1 -> s.k1 | `K2 -> s.k2 in
        let d = Kernel_info.threads_per_block k in
        let body = k.fn.Ast.f_body in
        if has_barrier_id ~id body && d mod 32 = 0 then begin
          let body' = set_barrier_count ~id ~count:d body in
          if not (Ast_util.equal_stmts body body') then
            let s' =
              match which with
              | `K1 -> { s with k1 = with_body s.k1 body' }
              | `K2 -> { s with k2 = with_body s.k2 body' }
            in
            update
              (action "set-barrier-count" "%s: bar.sync %d count %d -> %d"
                 k.fn.Ast.f_name id count d)
              s'
        end)
      [ `K1; `K2 ]
  in
  List.iter
    (fun (d : Diag.t) ->
      match d.kind with
      | Diag.Barrier_id_collision { id; _ } ->
          (* both sides carry [id]; keep kernel 1's and move kernel 2's *)
          renumber ~which:`K2 ~from_id:id
      | Diag.Barrier_id_out_of_range { id; _ } ->
          renumber ~which:`K1 ~from_id:id;
          renumber ~which:`K2 ~from_id:id
      | Diag.Barrier_count_unaligned { id; count }
      | Diag.Barrier_count_mismatch { id; count; _ } ->
          set_count ~id ~count
      | Diag.Shared_race { label; _ } when d.severity = Diag.Error ->
          List.iter
            (fun which ->
              let s = !st in
              let k = match which with `K1 -> s.k1 | `K2 -> s.k2 in
              if String.equal k.fn.Ast.f_name label then begin
                let body = k.fn.Ast.f_body in
                let body', n =
                  guard_uniform_shared_writes ~shared:(shared_decl_names body)
                    ~mk_barrier:(fun () -> Ast.mk_stmt Ast.Sync)
                    body
                in
                if n > 0 then
                  let s' =
                    match which with
                    | `K1 -> { s with k1 = with_body s.k1 body' }
                    | `K2 -> { s with k2 = with_body s.k2 body' }
                  in
                  update
                    (action "guard-shared-write"
                       "%s: %d block-uniform shared write(s) behind \
                        threadIdx.x == 0 + barrier"
                       label n)
                    s'
              end)
            [ `K1; `K2 ]
      | Diag.Over_budget { resource = Limits.By_registers; _ } ->
          let s = !st in
          let threads =
            Kernel_info.threads_per_block s.k1
            + Kernel_info.threads_per_block s.k2
          in
          let effective_regs =
            let fused =
              Hfuse_core.Fuse_common.fused_regs s.k1.regs s.k2.regs
            in
            match s.reg_bound with Some b -> min b fused | None -> fused
          in
          let smem =
            (* generate's layout: k1 at 0, k2 after aligned padding *)
            let align n a = (n + a - 1) / a * a in
            align s.k1.smem_dynamic s.smem_align + s.k2.smem_dynamic
          in
          (match
             residency_reg_bound limits ~threads ~smem ~effective_regs
           with
          | None -> ()
          | Some r ->
              update
                (action "bound-registers"
                   "force register bound %d (%d threads on a %d-register \
                    SM)"
                   r threads limits.regs_per_sm)
                { s with reg_bound = Some r })
      | Diag.Over_budget { resource = Limits.By_smem; _ } ->
          let s = !st in
          if s.smem_align > 4 && s.k1.smem_dynamic > 0 then
            update
              (action "shrink-smem-padding"
                 "inter-kernel shared-memory alignment %d -> %d"
                 s.smem_align (s.smem_align / 2))
              { s with smem_align = s.smem_align / 2 }
      | Diag.Over_budget { resource = Limits.By_threads | Limits.By_block_slots; _ }
      | Diag.Divergent_barrier _
      | Diag.Full_barrier_in_partition _ (* generate never emits these *)
      | Diag.Shared_overlap _ | Diag.Shared_race _ ->
          ())
    errs;
  (!st, !changed)

let attempt ?(limits = Limits.pascal_volta) ?(max_rounds = default_rounds)
    (k1 : Kernel_info.t) (k2 : Kernel_info.t) : (repaired, failure) result =
  let rec go st round =
    match
      Hfuse.generate ~check:false ~limits ~smem_align:st.smem_align st.k1
        st.k2
    with
    | exception Hfuse_core.Fuse_common.Fusion_error msg ->
        Error (Generate_failed msg)
    | exception Barrier.Invalid_barrier msg -> Error (Generate_failed msg)
    | fused ->
        let regs =
          match st.reg_bound with
          | Some b -> min b fused.Hfuse.regs
          | None -> fused.Hfuse.regs
        in
        let diags =
          Verifier.verify ~limits
            ~threads:(Hfuse.threads_per_block fused)
            ~regs ~smem_dynamic:fused.Hfuse.smem_dynamic fused.Hfuse.sides
        in
        if Diag.is_clean diags then
          Ok
            {
              fused;
              reg_bound = st.reg_bound;
              actions = List.rev st.acts;
              rounds = round;
              residual = diags;
            }
        else
          let errs = Diag.errors diags in
          if round >= max_rounds then Error (Budget_exhausted errs)
          else
            let st', changed = apply_pair_strategies limits st errs in
            if not changed then
              Error
                (if st.acts = [] then Unserviceable errs
                 else No_progress errs)
            else go st' (round + 1)
  in
  go { k1; k2; reg_bound = None; smem_align = 16; acts = [] } 0

(* -- sides-level repair (already-fused sources) ---------------------- *)

type sides_repaired = {
  r_sides : Verifier.side list;
  r_smem_dynamic : int;
  r_reg_bound : int option;
  r_actions : action list;
  r_rounds : int;
  r_residual : Diag.t list;
}

type sides_state = {
  sides : Verifier.side list;
  smem_dynamic : int;
  bound : int option;
  sacts : action list;  (** reversed *)
}

let side_set ~label f sides =
  List.map
    (fun (s : Verifier.side) ->
      if String.equal s.Verifier.s_label label then f s else s)
    sides

let all_side_ids (sides : Verifier.side list) =
  List.concat_map
    (fun (s : Verifier.side) ->
      (match s.Verifier.s_bar with Some (id, _) -> [ id ] | None -> [])
      @ Barrier.used_ids s.Verifier.s_body)
    sides

let rebase_dynamic_regions (sides : Verifier.side list) :
    Verifier.side list * int =
  let align n a = (n + a - 1) / a * a in
  let off = ref 0 in
  let sides' =
    List.map
      (fun (s : Verifier.side) ->
        let regions =
          List.map
            (fun (r : Verifier.region) ->
              if r.Verifier.r_dynamic && r.Verifier.r_bytes > 0 then begin
                let o = align !off 16 in
                off := o + r.Verifier.r_bytes;
                { r with Verifier.r_offset = o }
              end
              else r)
            s.Verifier.s_shared
        in
        { s with Verifier.s_shared = regions })
      sides
  in
  (sides', !off)

let apply_sides_strategies (limits : Limits.t) ~threads ~regs
    (st : sides_state) (errs : Diag.t list) : sides_state * bool =
  let st = ref st and changed = ref false in
  let update act s' =
    st := { s' with sacts = act :: s'.sacts };
    changed := true
  in
  List.iter
    (fun (d : Diag.t) ->
      match d.kind with
      | Diag.Full_barrier_in_partition { label } ->
          let s = !st in
          let fired = ref None in
          let sides' =
            side_set ~label
              (fun side ->
                let id =
                  match side.Verifier.s_bar with
                  | Some (id, _) -> Some id
                  | None -> (
                      match Barrier.fresh_id (all_side_ids s.sides) with
                      | exception Barrier.Invalid_barrier _ -> None
                      | id -> Some id)
                in
                match id with
                | Some id when side.Verifier.s_count mod 32 = 0 ->
                    fired := Some id;
                    {
                      side with
                      Verifier.s_body =
                        Barrier.replace ~id ~count:side.Verifier.s_count
                          side.Verifier.s_body;
                      s_bar =
                        (match side.Verifier.s_bar with
                        | Some _ as b -> b
                        | None -> Some (id, side.Verifier.s_count));
                    }
                | _ -> side)
              s.sides
          in
          (match !fired with
          | Some id ->
              update
                (action "partial-barrier"
                   "%s: __syncthreads() -> bar.sync %d, %d" label id
                   (List.fold_left
                      (fun acc (sd : Verifier.side) ->
                        if String.equal sd.Verifier.s_label label then
                          sd.Verifier.s_count
                        else acc)
                      0 s.sides))
                { s with sides = sides' }
          | None -> ())
      | Diag.Shared_overlap _ ->
          let s = !st in
          let sides', total = rebase_dynamic_regions s.sides in
          if total <> 0 || s.smem_dynamic <> 0 then
            update
              (action "rebase-shared-regions"
                 "serial 16-aligned layout, %d dynamic bytes" total)
              { s with sides = sides'; smem_dynamic = total }
      | Diag.Barrier_id_collision { id; label2; _ } ->
          let s = !st in
          let used = all_side_ids s.sides in
          (match Barrier.fresh_id used with
          | exception Barrier.Invalid_barrier _ -> ()
          | to_id ->
              let sides' =
                side_set ~label:label2
                  (fun side ->
                    {
                      side with
                      Verifier.s_body =
                        renumber_barrier ~from_id:id ~to_id
                          side.Verifier.s_body;
                      s_bar =
                        (match side.Verifier.s_bar with
                        | Some (i, c) when i = id -> Some (to_id, c)
                        | b -> b);
                    })
                  s.sides
              in
              update
                (action "renumber-barrier" "%s: bar.sync id %d -> %d" label2
                   id to_id)
                { s with sides = sides' })
      | Diag.Barrier_id_out_of_range { id; _ } ->
          let s = !st in
          (match Barrier.fresh_id (all_side_ids s.sides) with
          | exception Barrier.Invalid_barrier _ -> ()
          | to_id ->
              let sides' =
                List.map
                  (fun (side : Verifier.side) ->
                    if has_barrier_id ~id side.Verifier.s_body then
                      {
                        side with
                        Verifier.s_body =
                          renumber_barrier ~from_id:id ~to_id
                            side.Verifier.s_body;
                      }
                    else side)
                  s.sides
              in
              update
                (action "renumber-barrier" "bar.sync id %d -> %d" id to_id)
                { s with sides = sides' })
      | Diag.Barrier_count_unaligned { id; count }
      | Diag.Barrier_count_mismatch { id; count; _ } ->
          let s = !st in
          let fixed = ref false in
          let sides' =
            List.map
              (fun (side : Verifier.side) ->
                if
                  has_barrier_id ~id side.Verifier.s_body
                  && side.Verifier.s_count mod 32 = 0
                then begin
                  let body' =
                    set_barrier_count ~id ~count:side.Verifier.s_count
                      side.Verifier.s_body
                  in
                  if not (Ast_util.equal_stmts side.Verifier.s_body body')
                  then begin
                    fixed := true;
                    { side with Verifier.s_body = body' }
                  end
                  else side
                end
                else side)
              s.sides
          in
          if !fixed then
            update
              (action "set-barrier-count"
                 "bar.sync %d count %d -> the owning side's partition" id
                 count)
              { s with sides = sides' }
      | Diag.Shared_race { label; _ } when d.severity = Diag.Error ->
          (* only a full-width side can use the threadIdx.x == 0 leader;
             a partial side's thread range may not contain thread 0 *)
          let s = !st in
          let fired = ref 0 in
          let sides' =
            side_set ~label
              (fun side ->
                if side.Verifier.s_count <> threads then side
                else begin
                  let shared =
                    List.fold_left
                      (fun acc (r : Verifier.region) ->
                        SS.add r.Verifier.r_name acc)
                      (shared_decl_names side.Verifier.s_body)
                      side.Verifier.s_shared
                  in
                  let mk_barrier () =
                    match side.Verifier.s_bar with
                    | Some (id, c) -> Ast.mk_stmt (Ast.Bar_sync (id, c))
                    | None -> Ast.mk_stmt Ast.Sync
                  in
                  let body', n =
                    guard_uniform_shared_writes
                      ~seeds:(SS.of_list side.Verifier.s_tainted)
                      ~shared ~mk_barrier side.Verifier.s_body
                  in
                  fired := n;
                  if n > 0 then { side with Verifier.s_body = body' }
                  else side
                end)
              s.sides
          in
          if !fired > 0 then
            update
              (action "guard-shared-write"
                 "%s: %d block-uniform shared write(s) behind threadIdx.x \
                  == 0 + barrier"
                 label !fired)
              { s with sides = sides' }
      | Diag.Over_budget { resource = Limits.By_registers; _ } ->
          let s = !st in
          let effective_regs =
            match s.bound with Some b -> min b regs | None -> regs
          in
          let smem = s.smem_dynamic + Verifier.static_smem s.sides in
          (match
             residency_reg_bound limits ~threads ~smem ~effective_regs
           with
          | None -> ()
          | Some r ->
              update
                (action "bound-registers"
                   "force register bound %d (%d threads on a %d-register \
                    SM)"
                   r threads limits.regs_per_sm)
                { s with bound = Some r })
      | Diag.Over_budget { resource = Limits.By_smem | Limits.By_threads
                                      | Limits.By_block_slots;
                           _ }
      | Diag.Divergent_barrier _ | Diag.Shared_race _ ->
          ())
    errs;
  (!st, !changed)

let repair_sides ?(limits = Limits.pascal_volta)
    ?(max_rounds = default_rounds) ~threads ~regs ~smem_dynamic
    (sides : Verifier.side list) : (sides_repaired, failure) result =
  let rec go st round =
    let eff_regs =
      match st.bound with Some b -> min b regs | None -> regs
    in
    let diags =
      Verifier.verify ~limits ~threads ~regs:eff_regs
        ~smem_dynamic:st.smem_dynamic st.sides
    in
    if Diag.is_clean diags then
      Ok
        {
          r_sides = st.sides;
          r_smem_dynamic = st.smem_dynamic;
          r_reg_bound = st.bound;
          r_actions = List.rev st.sacts;
          r_rounds = round;
          r_residual = diags;
        }
    else
      let errs = Diag.errors diags in
      if round >= max_rounds then Error (Budget_exhausted errs)
      else
        let st', changed = apply_sides_strategies limits ~threads ~regs st errs in
        if not changed then
          Error
            (if st.sacts = [] then Unserviceable errs else No_progress errs)
        else go st' (round + 1)
  in
  go { sides; smem_dynamic; bound = None; sacts = [] } 0
