(* Horizontal fusion — the Generate() algorithm of Fig. 5, extended to
   the 2-D thread geometry of the motivating example (Fig. 4) and to
   kernels with different grid dimensions.

   Given two prepared kernels with chosen block dimensions d1 and d2, the
   fused kernel:
   - launches with a block of d1 + d2 threads; threads [0, d1) execute
     K1's statements, threads [d1, d1+d2) execute K2's;
   - computes each input kernel's (threadIdx, blockDim) from the fused
     linear thread id in a prologue (Fig. 4 lines 2-23);
   - guards each input kernel's statements with
     [if (global_tid >= d1) goto K1_end;] / [if (global_tid < d1) goto
     K2_end;] (Fig. 5 lines 7-12);
   - replaces every [__syncthreads()] with the partial barrier
     [bar.sync id_i, d_i] (Fig. 5 lines 5-6). *)

open Cuda
open Hfuse_frontend

type t = {
  fn : Ast.fn;  (** the fused kernel *)
  prog : Ast.program;  (** translation unit containing [fn] *)
  d1 : int;  (** threads assigned to the first kernel *)
  d2 : int;  (** threads assigned to the second kernel *)
  grid : int;  (** fused grid dimension *)
  smem_dynamic : int;  (** dynamic shared memory of the fused kernel *)
  regs : int;  (** register estimate (before any register bound) *)
  param_map1 : (string * string) list;
      (** K1's (original, fused) parameter names *)
  param_map2 : (string * string) list;
  bar1 : int;  (** hardware barrier id used for K1's syncs *)
  bar2 : int;
  src1 : Kernel_info.t;  (** the inputs, as configured for this fusion *)
  src2 : Kernel_info.t;
  sides : Hfuse_analysis.Verifier.side list;
      (** the verifier's view of the two fused sides *)
}

let threads_per_block t = t.d1 + t.d2

let info t : Kernel_info.t =
  {
    Kernel_info.fn = t.fn;
    prog = t.prog;
    block = (t.d1 + t.d2, 1, 1);
    grid = t.grid;
    smem_dynamic = t.smem_dynamic;
    regs = t.regs;
    tunability = Kernel_info.Fixed;
  }

(** Run the fusion-safety verifier on an already-generated fusion. *)
let verify ?limits (t : t) : Hfuse_analysis.Diag.t list =
  Hfuse_analysis.Verifier.verify ?limits ~threads:(t.d1 + t.d2) ~regs:t.regs
    ~smem_dynamic:t.smem_dynamic t.sides

(** Both inputs through the normalisation pipeline (device calls
    inlined, declarations lifted, locals freshly renamed), k1 first, so
    when both fail the error is k1's.  The block dimension plays no
    part, so a search normalises once for all its partitions. *)
let normalize (k1 : Kernel_info.t) (k2 : Kernel_info.t) : Ast.fn * Ast.fn =
  let f1 = Inline.normalize_kernel k1.prog k1.fn in
  (f1, Inline.normalize_kernel k2.prog k2.fn)

(** [generate k1 k2] horizontally fuses two kernels at their configured
    block dimensions.  Raises {!Fuse_common.Fusion_error} on structural
    problems (unliftable bodies, barrier-id exhaustion, thread counts not
    multiples of the warp size), and — unless [~check:false] —
    {!Hfuse_analysis.Diag.Unsafe_fusion} when the static fusion-safety
    verifier finds an error in the result.  [normalized] supplies the
    normalised bodies; it is called once the geometry checks pass. *)
let generate ?(check = true) ?(limits = Occupancy.pascal_volta_limits)
    ?(smem_align = 16) ?normalized (k1 : Kernel_info.t) (k2 : Kernel_info.t) :
    t =
  if smem_align <= 0 || smem_align land (smem_align - 1) <> 0 then
    Fuse_common.fail "shared-memory alignment %d is not a power of two"
      smem_align;
  let d1 = Kernel_info.threads_per_block k1 in
  let d2 = Kernel_info.threads_per_block k2 in
  if d1 mod 32 <> 0 || d2 mod 32 <> 0 then
    Fuse_common.fail
      "block dimensions must be multiples of the warp size (got %d and %d)"
      d1 d2;
  if d1 + d2 > limits.Occupancy.max_threads_per_block then
    Fuse_common.fail
      "fused block of %d threads exceeds the %d-thread hardware limit"
      (d1 + d2) limits.Occupancy.max_threads_per_block;
  let f1, f2 =
    match normalized with Some f -> f () | None -> normalize k1 k2
  in
  let pool = Rename.create () in
  Rename.reserve pool Fuse_common.dyn_smem_name;
  let p1 = Fuse_common.prepare pool { k1 with fn = f1 } in
  let p2 = Fuse_common.prepare pool { k2 with fn = f2 } in
  let global_tid = Rename.fresh pool "global_tid" in
  let l1 = Rename.fresh pool "K1_end" in
  let l2 = Rename.fresh pool "K2_end" in
  (* prologue: fused linear tid + per-kernel geometry *)
  let geo1, map1 =
    Fuse_common.geometry_prologue pool ~tag:"1" ~base:None ~block:k1.block
      global_tid
  in
  let geo2, map2 =
    Fuse_common.geometry_prologue pool ~tag:"2"
      ~base:(Some (Ast.int_lit d1))
      ~block:k2.block global_tid
  in
  (* barriers: give each side its own id, avoiding ids already present *)
  let used = Barrier.used_ids p1.body @ Barrier.used_ids p2.body in
  let bar1 = Barrier.fresh_id used in
  let bar2 = Barrier.fresh_id (bar1 :: used) in
  let body1 =
    p1.body
    |> Builtins.replace map1
    |> Barrier.replace ~id:bar1 ~count:d1
  in
  let body2 =
    p2.body
    |> Builtins.replace map2
    |> Barrier.replace ~id:bar2 ~count:d2
  in
  (* dynamic shared memory layout: K1 at offset 0, K2 after, aligned *)
  let off2 = Fuse_common.align_up k1.smem_dynamic smem_align in
  let smem_dynamic = off2 + k2.smem_dynamic in
  let dyn_decls =
    if p1.extern_shared = [] && p2.extern_shared = [] then []
    else
      Ast.decl ~storage:Ast.Shared_extern Fuse_common.dyn_smem_name
        (Ctype.Array (Ctype.UChar, None))
      :: (Fuse_common.bind_extern_shared p1 ~offset:0
         @ Fuse_common.bind_extern_shared p2 ~offset:off2)
  in
  (* grid: take the max; guard each side when its grid is smaller *)
  let grid = max k1.grid k2.grid in
  let open Ast in
  let guard ~skip_when label = mk_stmt (If (skip_when, [ mk_stmt (Goto label) ], [])) in
  let in_k1 = Binop (Ge, Var global_tid, int_lit d1) in
  let in_k2 = Binop (Lt, Var global_tid, int_lit d1) in
  let or_grid cond gk =
    if gk < grid then
      Binop (Lor, cond, Binop (Ge, Builtin (Block_idx X), int_lit gk))
    else cond
  in
  let decl_stmts ds = List.map (fun d -> mk_stmt (Decl d)) ds in
  let body =
    (mk_stmt
       (Decl
          {
            d_name = global_tid;
            (* threadIdx/blockDim are unsigned; the substituted
               geometry variables must be too, or the input kernel's
               unsigned arithmetic turns signed after fusion *)
            d_type = Ctype.UInt;
            d_storage = Local;
            d_init = Some Fuse_common.global_tid_init;
          })
    :: geo1)
    @ geo2 @ dyn_decls
    @ decl_stmts (p1.decls @ p2.decls)
    @ (guard ~skip_when:(or_grid in_k1 k1.grid) l1 :: body1)
    @ [ mk_stmt (Label l1) ]
    @ (guard ~skip_when:(or_grid in_k2 k2.grid) l2 :: body2)
    @ [ mk_stmt (Label l2) ]
  in
  let fn =
    {
      f_name = k1.fn.f_name ^ "_" ^ k2.fn.f_name ^ "_fused";
      f_kind = Global;
      f_params = p1.params @ p2.params;
      f_ret = Ctype.Void;
      f_body = body;
      f_launch_bounds = None;
    }
  in
  let prog = { Ast.defines = []; functions = [ fn ] } in
  let side1 =
    Fuse_common.verifier_side ~bar:(bar1, d1) ~label:k1.fn.f_name ~count:d1
      ~dyn_offset:0
      ~tainted:(global_tid :: Fuse_common.mapping_tid_vars map1)
      p1 body1
  in
  let side2 =
    Fuse_common.verifier_side ~bar:(bar2, d2) ~label:k2.fn.f_name ~count:d2
      ~dyn_offset:off2
      ~tainted:(global_tid :: Fuse_common.mapping_tid_vars map2)
      p2 body2
  in
  let t =
    {
      fn;
      prog;
      d1;
      d2;
      grid;
      smem_dynamic;
      regs = Fuse_common.fused_regs k1.regs k2.regs;
      param_map1 = p1.param_map;
      param_map2 = p2.param_map;
      bar1;
      bar2;
      src1 = k1;
      src2 = k2;
      sides = [ side1; side2 ];
    }
  in
  if check then Hfuse_analysis.Diag.raise_if_unsafe (verify ~limits t);
  t

(** Emit the fused kernel as CUDA source text. *)
let to_source (t : t) : string = Pretty.program_to_string t.prog
