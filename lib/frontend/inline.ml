(* Device-function inlining (paper Section III-C).

   "We also use the built-in functionalities from the Clang front-end to
   inline all function calls in the input kernels.  HFUSE does not support
   recursive function calls."

   Two shapes of [__device__] function are inlined:

   - expression functions — a body of the form [return e;] (possibly with
     leading declarations whose initializers are pure).  Calls in any
     expression position are inlined by argument substitution; arguments
     with side effects are rejected when their parameter occurs more than
     once (duplicate evaluation would change semantics).

   - void statement functions — called only as expression statements
     ([f(a, b);]).  The (alpha-renamed) body is spliced in place, with
     parameters bound by fresh local declarations.

   Recursion — direct or mutual — is detected via the call graph and
   reported as an error, matching HFUSE's stated limitation. *)

open Cuda

exception Error of string

(* ------------------------------------------------------------------ *)
(* Call graph / recursion detection                                     *)
(* ------------------------------------------------------------------ *)

let callees (f : Ast.fn) : string list =
  Ast_util.StrSet.elements (Ast_util.called_names f.f_body)

(** Names of functions involved in a call-graph cycle reachable from any
    function of the program; empty when the program is recursion-free. *)
let recursive_functions (prog : Ast.program) : string list =
  let graph = Hashtbl.create 16 in
  List.iter
    (fun (f : Ast.fn) ->
      Hashtbl.replace graph f.f_name
        (List.filter (fun c -> Ast.find_fn prog c <> None) (callees f)))
    prog.functions;
  let color = Hashtbl.create 16 in
  (* 0 = white, 1 = grey, 2 = black *)
  let in_cycle = ref Ast_util.StrSet.empty in
  let rec dfs stack name =
    match Hashtbl.find_opt color name with
    | Some 1 ->
        (* back edge: everything from [name] on the stack is cyclic *)
        let rec take = function
          | [] -> ()
          | x :: rest ->
              in_cycle := Ast_util.StrSet.add x !in_cycle;
              if not (String.equal x name) then take rest
        in
        take stack
    | Some _ -> ()
    | None ->
        Hashtbl.replace color name 1;
        List.iter (dfs (name :: stack))
          (Option.value (Hashtbl.find_opt graph name) ~default:[]);
        Hashtbl.replace color name 2
  in
  List.iter (fun (f : Ast.fn) -> dfs [] f.f_name) prog.functions;
  Ast_util.StrSet.elements !in_cycle

(* ------------------------------------------------------------------ *)
(* Purity                                                               *)
(* ------------------------------------------------------------------ *)

let rec expr_has_side_effects (e : Ast.expr) : bool =
  match e with
  | Assign _ | Op_assign _ | Incdec _ -> true
  | Call (f, args) ->
      (* intrinsic atomics mutate; other known intrinsics are pure; calls
         to program functions are conservatively impure (they will be
         inlined first anyway, bottom-up) *)
      let impure_intrinsic =
        match f with
        | "atomicAdd" | "atomicMax" | "atomicMin" | "atomicExch"
        | "atomicCAS" | "__syncwarp" | "__threadfence"
        | "__threadfence_block" ->
            true
        | f -> not (Typecheck.is_intrinsic f)
      in
      impure_intrinsic || List.exists expr_has_side_effects args
  | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ | Builtin _ -> false
  | Unop (_, a) | Deref a | Addr_of a | Cast (_, a) ->
      expr_has_side_effects a
  | Binop (_, a, b) | Index (a, b) ->
      expr_has_side_effects a || expr_has_side_effects b
  | Ternary (a, b, c) ->
      expr_has_side_effects a || expr_has_side_effects b
      || expr_has_side_effects c

let count_var_uses name stmts_expr =
  Ast_util.fold_expr
    (fun n e ->
      match e with Var x when String.equal x name -> n + 1 | _ -> n)
    0 stmts_expr

(* ------------------------------------------------------------------ *)
(* Inlining                                                             *)
(* ------------------------------------------------------------------ *)

(* An expression function: [return e;] possibly preceded by pure local
   declarations used only once.  We normalise to a single expression by
   substituting the declarations away. *)
let as_expression_fn (f : Ast.fn) : Ast.expr option =
  let rec go (bound : (string * Ast.expr) list) = function
    | [ { Ast.s = Ast.Return (Some e); _ } ] ->
        let table = Hashtbl.create 4 in
        List.iter (fun (k, v) -> Hashtbl.replace table k v) bound;
        let subst =
          Ast_util.map_expr (fun e ->
              match e with
              | Var x -> (
                  match Hashtbl.find_opt table x with
                  | Some v -> v
                  | None -> e)
              | e -> e)
        in
        Some (subst e)
    | { Ast.s = Ast.Decl { d_name; d_init = Some init; d_storage = Local; _ };
        _;
      }
      :: rest
      when not (expr_has_side_effects init) ->
        (* substitute the init (after substituting earlier bindings) *)
        let table = Hashtbl.create 4 in
        List.iter (fun (k, v) -> Hashtbl.replace table k v) bound;
        let init =
          Ast_util.map_expr
            (fun e ->
              match e with
              | Var x -> (
                  match Hashtbl.find_opt table x with
                  | Some v -> v
                  | None -> e)
              | e -> e)
            init
        in
        go ((d_name, init) :: bound) rest
    | _ -> None
  in
  go [] f.f_body

let substitute_args (f : Ast.fn) (body_expr : Ast.expr)
    (args : Ast.expr list) : Ast.expr =
  if List.length args <> List.length f.f_params then
    raise
      (Error
         (Fmt.str "%s called with %d arguments but declares %d" f.f_name
            (List.length args)
            (List.length f.f_params)));
  let table = Hashtbl.create 8 in
  List.iter2
    (fun (p : Ast.param) (a : Ast.expr) ->
      if expr_has_side_effects a && count_var_uses p.p_name body_expr > 1 then
        raise
          (Error
             (Fmt.str
                "cannot inline %s: argument for %s has side effects and is \
                 used %d times"
                f.f_name p.p_name
                (count_var_uses p.p_name body_expr)));
      Hashtbl.replace table p.p_name a)
    f.f_params args;
  Ast_util.map_expr
    (fun e ->
      match e with
      | Var x -> (
          match Hashtbl.find_opt table x with Some a -> a | None -> e)
      | e -> e)
    body_expr

(** Splice a void statement-function call [f(args);]: fresh-rename the
    body's locals against [pool], bind parameters as declarations, return
    the statement list. *)
let splice_void_call (pool : Rename.pool) (f : Ast.fn)
    (args : Ast.expr list) : Ast.stmt list =
  if List.length args <> List.length f.f_params then
    raise
      (Error
         (Fmt.str "%s called with %d arguments but declares %d" f.f_name
            (List.length args)
            (List.length f.f_params)));
  (* Bind each parameter to a fresh local initialized with the argument. *)
  let param_table = Hashtbl.create 8 in
  let param_decls =
    List.map2
      (fun (p : Ast.param) (a : Ast.expr) ->
        let name = Rename.fresh pool (f.f_name ^ "_" ^ p.p_name) in
        Hashtbl.replace param_table p.p_name name;
        Ast.decl ~init:a name p.p_type)
      f.f_params args
  in
  let body = Rename.uniquify_shadowing f.f_body in
  let body, _ = Rename.rename_locals pool body in
  let body =
    Ast_util.map_stmts_expr
      (fun e ->
        match e with
        | Var x -> (
            match Hashtbl.find_opt param_table x with
            | Some n -> Var n
            | None -> e)
        | e -> e)
      body
  in
  (* a bare [return;] in a void function maps to nothing harmful only if
     it is in tail position; reject otherwise *)
  let rec check_returns tail stmts =
    List.iteri
      (fun i (s : Ast.stmt) ->
        let is_last = i = List.length stmts - 1 in
        match s.s with
        | Return (Some _) ->
            raise (Error (f.f_name ^ ": void function returns a value"))
        | Return None when not (tail && is_last) ->
            raise
              (Error
                 (Fmt.str
                    "cannot inline %s: return in non-tail position"
                    f.f_name))
        | Return None -> ()
        | If (_, t, e) when tail && is_last ->
            check_returns true t;
            check_returns true e
        | If (_, t, e) ->
            check_returns false t;
            check_returns false e
        | For (_, _, _, b) | While (_, b) | Do_while (b, _) ->
            check_returns false b
        | Block b -> check_returns (tail && is_last) b
        | _ -> ())
      stmts
  in
  check_returns true body;
  let body =
    Ast_util.map_stmts
      (fun s -> match s.s with Return None -> [] | _ -> [ s ])
      body
  in
  param_decls @ body

(* Inline the calls [is_target] names, to a fixpoint: an inlined body
   may call further device functions.  A round that inlines nothing
   shares the whole body, so it costs a walk and no allocation. *)
let inline_calls (prog : Ast.program) ~is_target (kernel : Ast.fn) : Ast.fn =
  let pool =
    Rename.of_names
      (Ast_util.StrSet.elements (Ast_util.used_names kernel.f_body)
      @ List.map (fun (p : Ast.param) -> p.p_name) kernel.f_params)
  in
  let changed = ref true in
  let body = ref kernel.f_body in
  let guard = ref 0 in
  while !changed do
    incr guard;
    if !guard > 100 then
      raise (Error "inlining did not reach a fixpoint (runaway expansion)");
    changed := false;
    (* statement-level: void calls in statement position *)
    body :=
      Ast_util.map_stmts
        (fun s ->
          match s.s with
          | Expr (Call (name, args)) when is_target name -> (
              match Ast.find_fn prog name with
              | Some f when f.f_ret = Ctype.Void ->
                  changed := true;
                  splice_void_call pool f args
              | _ -> [ s ])
          | _ -> [ s ])
        !body;
    (* expression-level: expression functions anywhere *)
    body :=
      Ast_util.map_stmts_expr
        (fun e ->
          match e with
          | Call (name, args) when is_target name -> (
              match Ast.find_fn prog name with
              | Some f -> (
                  match as_expression_fn f with
                  | Some body_expr ->
                      changed := true;
                      substitute_args f body_expr args
                  | None ->
                      if f.f_ret = Ctype.Void then e
                        (* handled at statement level; if it survives
                           there it is used as a value — error below *)
                      else
                        raise
                          (Error
                             (Fmt.str
                                "cannot inline %s: body is not a single \
                                 return expression"
                                name)))
              | None -> e)
          | e -> e)
        !body;
    (* any remaining call to a device function in value position? *)
    if not !changed then
      Ast_util.StrSet.iter
        (fun name ->
          if is_target name then
            raise
              (Error
                 (Fmt.str "call to %s could not be inlined (used as a value?)"
                    name)))
        (Ast_util.called_names !body)
  done;
  { kernel with f_body = !body }

(** Inline every call to a program-defined [__device__] function inside
    [kernel], to a fixpoint (callees may call other device functions).
    Raises {!Error} on recursion or uninlinable shapes. *)
let inline_fn (prog : Ast.program) (kernel : Ast.fn) : Ast.fn =
  (match recursive_functions prog with
  | [] -> ()
  | cyc ->
      raise
        (Error
           (Fmt.str "recursive function calls are not supported: %a"
              Fmt.(list ~sep:comma string)
              cyc)));
  let target_fns =
    List.filter_map
      (fun (f : Ast.fn) ->
        match f.f_kind with Device -> Some f.f_name | Global -> None)
      prog.functions
  in
  let is_target name = List.mem name target_fns in
  (* a kernel that calls none of them is returned as it is *)
  if Ast_util.StrSet.exists is_target (Ast_util.called_names kernel.f_body)
  then inline_calls prog ~is_target kernel
  else kernel

(** Convenience: parse+normalise pipeline used by the fusion driver.
    Runs shadowing-uniquification, inlining and declaration lifting on the
    kernel, returning a self-contained function ready for fusion. *)
let normalize_kernel (prog : Ast.program) (kernel : Ast.fn) : Ast.fn =
  let kernel =
    { kernel with f_body = Rename.uniquify_shadowing kernel.f_body }
  in
  let inlined = inline_fn prog kernel in
  (* a body that inlining left as it was is unique already *)
  let kernel =
    if inlined.f_body == kernel.f_body then kernel
    else { inlined with f_body = Rename.uniquify_shadowing inlined.f_body }
  in
  Lift_decls.lift_fn kernel
