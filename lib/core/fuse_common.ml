(* Machinery shared by horizontal (Fig. 5) and vertical fusion:
   parameter merging, local/label renaming against a common pool,
   dynamic shared-memory layout, and thread-geometry mappings.

   Both fusers consume kernels already normalised by
   {!Hfuse_frontend.Inline.normalize_kernel} (macros expanded, device
   calls inlined, shadowing resolved, declarations lifted). *)

open Cuda
open Hfuse_frontend

(* bump with any change that moves a fused kernel's printed bytes
   (test/golden/pretty.md5 pins them at the sizes it prints): cached
   times and traces of fused kernels are keyed by this constant, not
   by the printed source *)
let version = "f1"

exception Fusion_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Fusion_error s)) fmt

(** One input kernel, prepared for splicing into a fused kernel. *)
type prepared = {
  info : Kernel_info.t;
  params : Ast.param list;  (** renamed fused-kernel parameters *)
  param_map : (string * string) list;
      (** (original param name, fused param name) *)
  decls : Ast.decl list;  (** renamed lifted local declarations *)
  body : Ast.stmt list;  (** renamed non-declaration statements *)
  extern_shared : (string * Ctype.t) list;
      (** renamed extern __shared__ arrays: (name, element type) *)
}

(** Split a lifted body into its leading declarations and the rest. *)
let split_lifted (body : Ast.stmt list) : Ast.decl list * Ast.stmt list =
  let rec go acc = function
    | { Ast.s = Ast.Decl d; _ } :: rest -> go (d :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let decls, rest = go [] body in
  if not (Lift_decls.is_lifted body) then
    fail "kernel body is not in lifted form (run normalize_kernel first)";
  (decls, rest)

(** Prepare one input kernel: rename its parameters, locals and labels to
    be fresh w.r.t. [pool] (which accumulates), and extract its extern
    shared arrays. *)
let prepare (pool : Rename.pool) (info : Kernel_info.t) : prepared =
  let fn = info.fn in
  let decls, body = split_lifted fn.f_body in
  (* parameters *)
  let param_map, params =
    List.fold_left
      (fun (map, ps) (p : Ast.param) ->
        let name' = Rename.fresh pool p.p_name in
        ((p.p_name, name') :: map, { p with p_name = name' } :: ps))
      ([], []) fn.f_params
    |> fun (m, ps) -> (List.rev m, List.rev ps)
  in
  let subst = Hashtbl.create 8 in
  List.iter
    (fun (old_name, new_name) ->
      if not (String.equal old_name new_name) then
        Hashtbl.replace subst old_name (Ast.Var new_name))
    param_map;
  let body = Ast_util.subst_vars subst body in
  let decls =
    List.map
      (fun (d : Ast.decl) ->
        {
          d with
          d_init =
            Option.map
              (Ast_util.map_expr (fun e ->
                   match e with
                   | Var x -> (
                       match Hashtbl.find_opt subst x with
                       | Some e' -> e'
                       | None -> e)
                   | e -> e))
              d.d_init;
        })
      decls
  in
  (* locals: wrap back into stmts to reuse rename_locals *)
  let decl_stmts = List.map (fun d -> Ast.mk_stmt (Ast.Decl d)) decls in
  let all, _table = Rename.rename_locals pool (decl_stmts @ body) in
  let decls, body = split_lifted all in
  let body = Rename.rename_labels pool body in
  let extern_shared =
    List.filter_map
      (fun (d : Ast.decl) ->
        match (d.d_storage, d.d_type) with
        | Ast.Shared_extern, Ctype.Array (el, None) -> Some (d.d_name, el)
        | Ast.Shared_extern, t ->
            fail "extern __shared__ %s has non-array type %s" d.d_name
              (Ctype.to_string t)
        | _ -> None)
      decls
  in
  let decls =
    List.filter
      (fun (d : Ast.decl) -> d.d_storage <> Ast.Shared_extern)
      decls
  in
  { info; params; param_map; decls; body; extern_shared }

(** Name of the unified dynamic shared-memory buffer of fused kernels. *)
let dyn_smem_name = "__hf_dyn_smem"

(** Rewrite a prepared kernel's extern-shared arrays as pointers into the
    unified buffer at [offset] (bytes).  Returns replacement declarations
    (with initialisers — they are emitted in the fused prologue, before
    any goto) and the adjusted body. *)
let bind_extern_shared (p : prepared) ~(offset : int) : Ast.stmt list =
  List.map
    (fun (name, el) ->
      let init =
        Ast.Cast
          ( Ctype.Ptr el,
            Ast.Binop (Ast.Add, Ast.Var dyn_smem_name, Ast.int_lit offset) )
      in
      Ast.decl ~init name (Ctype.Ptr el))
    p.extern_shared

(** Align [n] up to [a] bytes (dynamic shared-memory slices are 16-byte
    aligned, as nvcc guarantees for extern smem). *)
let align_up n a = (n + a - 1) / a * a

(** Thread-geometry mapping for one input kernel inside the fused block.

    The fused kernel is launched with a 1-D block; [base] is subtracted
    from the fused linear thread id to obtain the input kernel's linear
    id, which is then unflattened to the input kernel's (x, y, z) shape
    per the prologue of Fig. 4.  Returns (prologue statements, builtin
    mapping) where the mapping sends [threadIdx.*]/[blockDim.*] of the
    original kernel to the prologue-defined variables. *)
let geometry_prologue (pool : Rename.pool) ~(tag : string)
    ~(base : Ast.expr option) ~(block : int * int * int) (global_tid : string)
    : Ast.stmt list * Builtins.mapping =
  let bx, by, bz = block in
  let lin =
    match base with
    | None -> Ast.Var global_tid
    | Some b -> Ast.Binop (Ast.Sub, Ast.Var global_tid, b)
  in
  let tid_x = Rename.fresh pool ("tid" ^ tag ^ "_x") in
  let bdim_x = Rename.fresh pool ("bdim" ^ tag ^ "_x") in
  let stmts = ref [] in
  let emit s = stmts := s :: !stmts in
  emit (Ast.decl ~init:(Ast.int_lit ~ty:Ctype.UInt bx) bdim_x Ctype.UInt);
  (* 1-D kernels: tid_x is just the (re-based) linear id. *)
  if by = 1 && bz = 1 then begin
    emit (Ast.decl ~init:lin tid_x Ctype.UInt);
    let m =
      Builtins.of_vars ~tid_x ~tid_y:tid_x ~tid_z:tid_x ~bdim_x
        ~bdim_y:bdim_x ~bdim_z:bdim_x
    in
    (* y/z should never be consulted for a 1-D kernel; give them real
       variables anyway so generated code stays compilable *)
    let m' =
      {
        Builtins.tid =
          (function
          | Ast.X -> m.Builtins.tid Ast.X
          | Ast.Y | Ast.Z -> Ast.int_lit ~ty:Ctype.UInt 0);
        bdim =
          (function
          | Ast.X -> m.Builtins.bdim Ast.X
          | Ast.Y | Ast.Z -> Ast.int_lit ~ty:Ctype.UInt 1);
      }
    in
    (List.rev !stmts, m')
  end
  else begin
    let tid_y = Rename.fresh pool ("tid" ^ tag ^ "_y") in
    let tid_z = Rename.fresh pool ("tid" ^ tag ^ "_z") in
    let bdim_y = Rename.fresh pool ("bdim" ^ tag ^ "_y") in
    let bdim_z = Rename.fresh pool ("bdim" ^ tag ^ "_z") in
    emit (Ast.decl ~init:(Ast.int_lit ~ty:Ctype.UInt by) bdim_y Ctype.UInt);
    emit (Ast.decl ~init:(Ast.int_lit ~ty:Ctype.UInt bz) bdim_z Ctype.UInt);
    (* x = lin % bx; y = lin / bx % by; z = lin / (bx*by) *)
    emit
      (Ast.decl ~init:(Ast.Binop (Ast.Mod, lin, Ast.Var bdim_x)) tid_x
         Ctype.UInt);
    emit
      (Ast.decl
         ~init:
           (Ast.Binop
              ( Ast.Mod,
                Ast.Binop (Ast.Div, lin, Ast.Var bdim_x),
                Ast.Var bdim_y ))
         tid_y Ctype.UInt);
    emit
      (Ast.decl
         ~init:
           (Ast.Binop
              (Ast.Div, lin, Ast.Binop (Ast.Mul, Ast.Var bdim_x, Ast.Var bdim_y)))
         tid_z Ctype.UInt);
    ( List.rev !stmts,
      Builtins.of_vars ~tid_x ~tid_y ~tid_z ~bdim_x ~bdim_y ~bdim_z )
  end

(** The fused linear thread id, computed as in Fig. 4 line 3 so the fused
    kernel works under any launch block shape. *)
let global_tid_init : Ast.expr =
  let open Ast in
  Binop
    ( Add,
      Binop
        ( Add,
          Builtin (Thread_idx X),
          Binop (Mul, Builtin (Thread_idx Y), Builtin (Block_dim X)) ),
      Binop
        ( Mul,
          Builtin (Thread_idx Z),
          Binop (Mul, Builtin (Block_dim X), Builtin (Block_dim Y)) ) )

(** Register estimate for a fused kernel: per-thread register pressure is
    the maximum over the two code paths (each thread executes only one),
    plus the prologue's live values (tid mapping). *)
let fused_regs (r1 : int) (r2 : int) : int = max r1 r2 + 4

(** The prologue-defined variables a geometry mapping substitutes for
    [threadIdx.*] — thread-dependent seeds for the verifier's taint
    analysis (their definitions live outside the side's body). *)
let mapping_tid_vars (m : Builtins.mapping) : string list =
  List.sort_uniq compare
    (List.filter_map
       (fun d ->
         match m.Builtins.tid d with Ast.Var x -> Some x | _ -> None)
       [ Ast.X; Ast.Y; Ast.Z ])

(** Assemble the fusion-safety verifier's view of one prepared input
    kernel: its share of the block, its (re)assigned barrier, its
    dynamic shared region at [dyn_offset] within the unified buffer, its
    static [__shared__] declarations, and the thread-dependent seed
    variables. *)
let verifier_side ?bar ~label ~count ~dyn_offset ~tainted (p : prepared)
    (body : Ast.stmt list) : Hfuse_analysis.Verifier.side =
  let dyn =
    List.map
      (fun (name, _) ->
        {
          Hfuse_analysis.Verifier.r_name = name;
          r_bytes = p.info.smem_dynamic;
          r_offset = dyn_offset;
          r_dynamic = true;
        })
      p.extern_shared
  in
  let static =
    List.filter_map
      (fun (d : Ast.decl) ->
        match d.d_storage with
        | Ast.Shared ->
            Some
              {
                Hfuse_analysis.Verifier.r_name = d.d_name;
                r_bytes =
                  (try Ctype.sizeof d.d_type with Invalid_argument _ -> 0);
                r_offset = 0;
                r_dynamic = false;
              }
        | _ -> None)
      p.decls
  in
  Hfuse_analysis.Verifier.side ?bar ~shared:(dyn @ static) ~tainted ~label
    ~count body
