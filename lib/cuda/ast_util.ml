(* Generic traversals and queries over the CUDA AST.

   These are the workhorses of the frontend passes: bottom-up expression
   mapping, statement mapping, folds, free/declared variable collection,
   and capture-free variable substitution (the frontend guarantees
   freshness separately, so substitution here is plain). *)

open Ast

(* ------------------------------------------------------------------ *)
(* Expression traversal                                                 *)
(* ------------------------------------------------------------------ *)

(* Every map below shares what it leaves alone: a node whose children
   all come back physically equal is returned as it is, so a pass that
   changes nothing allocates nothing and a changed leaf rebuilds only its
   ancestors.  Children are visited in the order OCaml evaluates
   constructor arguments, last to first, and list elements first to last,
   so a side-effecting [f] (fresh names, errors) sees nodes in the same
   order as a plain rebuild would show them. *)

(* [List.map] that answers [l] itself when [f] changes no element *)
let rec map_list f l =
  match l with
  | [] -> l
  | x :: rest ->
      let x' = f x in
      let rest' = map_list f rest in
      if x' == x && rest' == rest then l else x' :: rest'

let map_opt f o =
  match o with
  | None -> o
  | Some x ->
      let x' = f x in
      if x' == x then o else Some x'

(** Bottom-up expression rewriting: children first, then [f] on the node. *)
let rec map_expr (f : expr -> expr) (e : expr) : expr =
  let r = map_expr f in
  let e' =
    match e with
    | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ | Builtin _ -> e
    | Unop (op, a) ->
        let a' = r a in
        if a' == a then e else Unop (op, a')
    | Binop (op, a, b) ->
        let b' = r b in
        let a' = r a in
        if a' == a && b' == b then e else Binop (op, a', b')
    | Assign (a, b) ->
        let b' = r b in
        let a' = r a in
        if a' == a && b' == b then e else Assign (a', b')
    | Op_assign (op, a, b) ->
        let b' = r b in
        let a' = r a in
        if a' == a && b' == b then e else Op_assign (op, a', b')
    | Incdec i ->
        let lval = r i.lval in
        if lval == i.lval then e else Incdec { i with lval }
    | Ternary (c, a, b) ->
        let b' = r b in
        let a' = r a in
        let c' = r c in
        if c' == c && a' == a && b' == b then e else Ternary (c', a', b')
    | Call (name, args) ->
        let args' = map_list r args in
        if args' == args then e else Call (name, args')
    | Index (a, i) ->
        let i' = r i in
        let a' = r a in
        if a' == a && i' == i then e else Index (a', i')
    | Deref a ->
        let a' = r a in
        if a' == a then e else Deref a'
    | Addr_of a ->
        let a' = r a in
        if a' == a then e else Addr_of a'
    | Cast (t, a) ->
        let a' = r a in
        if a' == a then e else Cast (t, a')
  in
  f e'

(** Fold over all sub-expressions (pre-order, node then children). *)
let rec fold_expr (f : 'a -> expr -> 'a) (acc : 'a) (e : expr) : 'a =
  let acc = f acc e in
  let fr = fold_expr f in
  match e with
  | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ | Builtin _ -> acc
  | Unop (_, a) | Incdec { lval = a; _ } | Deref a | Addr_of a | Cast (_, a)
    ->
      fr acc a
  | Binop (_, a, b) | Assign (a, b) | Op_assign (_, a, b) ->
      fr (fr acc a) b
  | Ternary (c, a, b) -> fr (fr (fr acc c) a) b
  | Call (_, args) -> List.fold_left fr acc args
  | Index (a, i) -> fr (fr acc a) i

(* ------------------------------------------------------------------ *)
(* Statement traversal                                                  *)
(* ------------------------------------------------------------------ *)

(** Rewrite every expression inside a statement list with [f] (bottom-up
    within each expression). *)
let rec map_stmts_expr (f : expr -> expr) (stmts : stmt list) : stmt list =
  map_list (map_stmt_expr f) stmts

and map_stmt_expr f (s : stmt) : stmt =
  let me = map_expr f in
  let ms = map_stmts_expr f in
  let map_decl d =
    let init = map_opt me d.d_init in
    if init == d.d_init then d else { d with d_init = init }
  in
  let desc =
    match s.s with
    | Decl d ->
        let d' = map_decl d in
        if d' == d then s.s else Decl d'
    | Expr e ->
        let e' = me e in
        if e' == e then s.s else Expr e'
    | If (c, t, e) ->
        let e' = ms e in
        let t' = ms t in
        let c' = me c in
        if c' == c && t' == t && e' == e then s.s else If (c', t', e')
    | For (init, cond, step, body) ->
        let init' =
          match init with
          | None -> init
          | Some (For_expr e) ->
              let e' = me e in
              if e' == e then init else Some (For_expr e')
          | Some (For_decl ds) ->
              let ds' = map_list map_decl ds in
              if ds' == ds then init else Some (For_decl ds')
        in
        let body' = ms body in
        let step' = map_opt me step in
        let cond' = map_opt me cond in
        if init' == init && cond' == cond && step' == step && body' == body
        then s.s
        else For (init', cond', step', body')
    | While (c, body) ->
        let body' = ms body in
        let c' = me c in
        if c' == c && body' == body then s.s else While (c', body')
    | Do_while (body, c) ->
        let c' = me c in
        let body' = ms body in
        if c' == c && body' == body then s.s else Do_while (body', c')
    | Return e ->
        let e' = map_opt me e in
        if e' == e then s.s else Return e'
    | (Break | Continue | Sync | Bar_sync _ | Goto _ | Label _ | Nop) as d ->
        d
    | Block b ->
        let b' = ms b in
        if b' == b then s.s else Block b'
  in
  if desc == s.s then s else { s with s = desc }

(** Structure-preserving statement rewriting: [f] is applied to each
    statement after its children have been rewritten; [f] may expand a
    statement into several. *)
let rec map_stmts (f : stmt -> stmt list) (stmts : stmt list) : stmt list =
  match stmts with
  | [] -> stmts
  | s :: rest -> (
      let ms = map_stmts f in
      let desc =
        match s.s with
        | If (c, t, e) ->
            let e' = ms e in
            let t' = ms t in
            if t' == t && e' == e then s.s else If (c, t', e')
        | For (i, c, st, body) ->
            let body' = ms body in
            if body' == body then s.s else For (i, c, st, body')
        | While (c, body) ->
            let body' = ms body in
            if body' == body then s.s else While (c, body')
        | Do_while (body, c) ->
            let body' = ms body in
            if body' == body then s.s else Do_while (body', c)
        | Block b ->
            let b' = ms b in
            if b' == b then s.s else Block b'
        | d -> d
      in
      let out = f (if desc == s.s then s else { s with s = desc }) in
      let rest' = ms rest in
      match out with
      | [ s' ] when s' == s && rest' == rest -> stmts
      | _ -> out @ rest')

(** Fold over every statement (pre-order), descending into nested lists. *)
let rec fold_stmts (f : 'a -> stmt -> 'a) (acc : 'a) (stmts : stmt list) : 'a
    =
  List.fold_left
    (fun acc s ->
      let acc = f acc s in
      match s.s with
      | If (_, t, e) -> fold_stmts f (fold_stmts f acc t) e
      | For (_, _, _, body) | While (_, body) | Do_while (body, _) | Block body
        ->
          fold_stmts f acc body
      | _ -> acc)
    acc stmts

let iter_stmts f stmts = fold_stmts (fun () s -> f s) () stmts

(** Fold over every expression occurring anywhere in a statement list. *)
let fold_stmts_expr (f : 'a -> expr -> 'a) (acc : 'a) (stmts : stmt list) : 'a
    =
  fold_stmts
    (fun acc s ->
      match s.s with
      | Decl { d_init = Some e; _ } | Expr e | Return (Some e) -> f acc e
      | If (c, _, _) | While (c, _) | Do_while (_, c) -> f acc c
      | For (init, cond, step, _) ->
          let acc =
            match init with
            | Some (For_expr e) -> f acc e
            | Some (For_decl ds) ->
                List.fold_left
                  (fun acc (d : decl) ->
                    match d.d_init with Some e -> f acc e | None -> acc)
                  acc ds
            | None -> acc
          in
          let acc = match cond with Some e -> f acc e | None -> acc in
          (match step with Some e -> f acc e | None -> acc)
      | _ -> acc)
    acc stmts

(* ------------------------------------------------------------------ *)
(* Queries                                                              *)
(* ------------------------------------------------------------------ *)

module StrSet = Set.Make (String)

(** All local declarations in a statement list (including nested ones and
    for-loop init declarations), in source order. *)
let collect_decls (stmts : stmt list) : decl list =
  List.rev
    (fold_stmts
       (fun acc s ->
         match s.s with
         | Decl d -> d :: acc
         | For (Some (For_decl ds), _, _, _) -> List.rev_append ds acc
         | _ -> acc)
       [] stmts)

(** Names of all declared locals. *)
let declared_names stmts =
  List.map (fun d -> d.d_name) (collect_decls stmts)

(** All variable names referenced anywhere in the statements. *)
let used_names (stmts : stmt list) : StrSet.t =
  fold_stmts_expr
    (fun acc e ->
      fold_expr
        (fun acc e -> match e with Var x -> StrSet.add x acc | _ -> acc)
        acc e)
    StrSet.empty stmts

(** Variables referenced but not declared locally — i.e. kernel parameters
    and (would-be) globals. *)
let free_names (stmts : stmt list) : StrSet.t =
  let declared = Hashtbl.create 64 in
  List.iter (fun d -> Hashtbl.replace declared d.d_name ()) (collect_decls stmts);
  fold_stmts_expr
    (fold_expr (fun acc e ->
         match e with
         | Var x when not (Hashtbl.mem declared x) -> StrSet.add x acc
         | _ -> acc))
    StrSet.empty stmts

(** All function names called anywhere in the statements. *)
let called_names (stmts : stmt list) : StrSet.t =
  fold_stmts_expr
    (fun acc e ->
      fold_expr
        (fun acc e -> match e with Call (f, _) -> StrSet.add f acc | _ -> acc)
        acc e)
    StrSet.empty stmts

(** All labels defined in the statements. *)
let labels (stmts : stmt list) : StrSet.t =
  fold_stmts
    (fun acc s -> match s.s with Label l -> StrSet.add l acc | _ -> acc)
    StrSet.empty stmts

(** Does the statement list contain any barrier ([__syncthreads] or
    [bar.sync])? *)
let has_barrier (stmts : stmt list) : bool =
  fold_stmts
    (fun acc s ->
      acc || match s.s with Sync | Bar_sync _ -> true | _ -> false)
    false stmts

(** Count of barrier statements. *)
let barrier_count (stmts : stmt list) : int =
  fold_stmts
    (fun acc s -> match s.s with Sync | Bar_sync _ -> acc + 1 | _ -> acc)
    0 stmts

(** Which built-in special values appear. *)
let used_builtins (stmts : stmt list) : builtin list =
  let l =
    fold_stmts_expr
      (fun acc e ->
        fold_expr
          (fun acc e -> match e with Builtin b -> b :: acc | _ -> acc)
          acc e)
      [] stmts
  in
  List.sort_uniq compare l

(* ------------------------------------------------------------------ *)
(* Divergence and aliasing walkers                                      *)
(* ------------------------------------------------------------------ *)

(** Fold over every statement together with the conditions of its
    enclosing [If]/loop constructs (innermost first).  Loop conditions
    are included because a barrier inside a loop whose trip count varies
    per thread diverges just like one under a thread-dependent [If]. *)
let fold_stmts_guarded (f : 'a -> guards:expr list -> stmt -> 'a) (acc : 'a)
    (stmts : stmt list) : 'a =
  let rec go guards acc stmts =
    List.fold_left
      (fun acc s ->
        let acc = f acc ~guards s in
        match s.s with
        | If (c, t, e) -> go (c :: guards) (go (c :: guards) acc t) e
        | While (c, body) | Do_while (body, c) -> go (c :: guards) acc body
        | For (_, cond, _, body) ->
            let guards =
              match cond with Some c -> c :: guards | None -> guards
            in
            go guards acc body
        | Block b -> go guards acc b
        | _ -> acc)
      acc stmts
  in
  go [] acc stmts

(** Every (variable, defining expression) pair in the statements:
    initialised declarations (including for-loop init declarations),
    assignments and compound assignments.  Increments define no *new*
    dependence (x := x +- 1) and are omitted; uninitialised declarations
    define no value and are omitted too. *)
let var_defs (stmts : stmt list) : (string * expr) list =
  let from_expr acc e =
    fold_expr
      (fun acc e ->
        match e with
        | Assign (Var x, rhs) | Op_assign (_, Var x, rhs) -> (x, rhs) :: acc
        | _ -> acc)
      acc e
  in
  let acc = fold_stmts_expr from_expr [] stmts in
  fold_stmts
    (fun acc s ->
      match s.s with
      | Decl { d_name; d_init = Some e; _ } -> (d_name, e) :: acc
      | For (Some (For_decl ds), _, _, _) ->
          List.fold_left
            (fun acc (d : decl) ->
              match d.d_init with Some e -> (d.d_name, e) :: acc | None -> acc)
            acc ds
      | _ -> acc)
    acc stmts

(** Variables whose address is taken somewhere — they can be written
    through the pointer, so their value is opaque to the def analysis. *)
let address_taken (stmts : stmt list) : StrSet.t =
  fold_stmts_expr
    (fun acc e ->
      fold_expr
        (fun acc e ->
          match e with Addr_of (Var x) -> StrSet.add x acc | _ -> acc)
        acc e)
    StrSet.empty stmts

(** Is a call to [f] inherently thread-dependent — returning a lane- or
    memory-order-dependent value even for uniform arguments?  Atomics,
    shuffles and ballots are; plain math intrinsics are not. *)
let thread_dependent_call (f : string) : bool =
  let has_prefix p =
    String.length f >= String.length p && String.sub f 0 (String.length p) = p
  in
  has_prefix "atomic" || has_prefix "__shfl" || has_prefix "__ballot"
  || has_prefix "WARP_SHFL"

(** [expr_thread_dependent ~tainted e]: may [e] evaluate differently on
    two threads of the same block, given the set [tainted] of
    thread-dependent variables?  Memory reads ([Index]/[Deref]) count as
    thread-dependent: without points-to information, a location written
    by another thread is exactly the case a divergence check must not
    miss. *)
let expr_thread_dependent ~(tainted : StrSet.t) (e : expr) : bool =
  fold_expr
    (fun acc e ->
      acc
      ||
      match e with
      | Builtin (Thread_idx _) -> true
      | Var x -> StrSet.mem x tainted
      | Index _ | Deref _ -> true
      | Call (f, _) -> thread_dependent_call f
      | _ -> false)
    false e

(** Fixpoint taint analysis: the variables that may hold values
    differing across threads of a block.  Seeds are variables whose
    address is taken (opaque writes) plus any caller-supplied [seeds]
    (e.g. prologue-defined thread-id variables whose definitions lie
    outside the analysed statements); a variable becomes tainted when
    any of its definitions is a thread-dependent expression.  Kernel
    parameters and [blockIdx]/[blockDim]/[gridDim] are block-uniform and
    never seed taint. *)
let thread_dependent_vars ?(seeds = StrSet.empty) (stmts : stmt list) :
    StrSet.t =
  let defs = var_defs stmts in
  let rec fix tainted =
    let tainted' =
      List.fold_left
        (fun acc (x, rhs) ->
          if StrSet.mem x acc then acc
          else if expr_thread_dependent ~tainted:acc rhs then StrSet.add x acc
          else acc)
        tainted defs
    in
    if StrSet.equal tainted' tainted then tainted else fix tainted'
  in
  fix (StrSet.union seeds (address_taken stmts))

(** One array access, as collected by {!array_accesses}. *)
type access = {
  acc_array : string;  (** base variable being indexed *)
  acc_index : expr;
  acc_kind : [ `Read | `Write | `Atomic ];
  acc_guards : expr list;  (** enclosing structured conditions *)
  acc_interval : int;
      (** barrier statements seen before this access in pre-order — two
          accesses with different intervals are (best-effort) separated
          by a barrier.  Loops are not unrolled, so accesses from
          different iterations of a barrier-free loop share an
          interval. *)
}

(** All [a\[i\]] accesses in the statements, classified as read, write
    or atomic, with their guard context and barrier interval.  An
    [&a\[i\]] argument to an [atomic*] intrinsic is an atomic access;
    passed to any other call it is conservatively a write. *)
let array_accesses (stmts : stmt list) : access list =
  let interval = ref 0 in
  let out = ref [] in
  let emit ~guards kind arr idx =
    out :=
      {
        acc_array = arr;
        acc_index = idx;
        acc_kind = kind;
        acc_guards = guards;
        acc_interval = !interval;
      }
      :: !out
  in
  let rec expr ~guards kind e =
    let rd = expr ~guards `Read in
    match e with
    | Index (Var a, i) ->
        emit ~guards kind a i;
        rd i
    | Index (a, i) ->
        expr ~guards kind a;
        rd i
    | Assign (lv, rhs) ->
        expr ~guards `Write lv;
        rd rhs
    | Op_assign (_, lv, rhs) ->
        expr ~guards `Write lv;
        expr ~guards `Read lv;
        rd rhs
    | Incdec { lval; _ } ->
        expr ~guards `Write lval;
        expr ~guards `Read lval
    | Call (f, args) ->
        let arg_kind =
          if String.length f >= 6 && String.sub f 0 6 = "atomic" then `Atomic
          else `Write
        in
        List.iter
          (fun arg ->
            match arg with
            | Addr_of (Index (Var a, i)) ->
                emit ~guards arg_kind a i;
                rd i
            | Addr_of inner -> expr ~guards `Write inner
            | arg -> rd arg)
          args
    | Unop (_, a) | Cast (_, a) -> expr ~guards kind a
    | Deref a -> rd a
    | Addr_of a -> expr ~guards `Write a
    | Binop (_, a, b) ->
        rd a;
        rd b
    | Ternary (c, a, b) ->
        rd c;
        expr ~guards kind a;
        expr ~guards kind b
    | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ | Builtin _ -> ()
  in
  let decl ~guards (d : decl) =
    match d.d_init with Some e -> expr ~guards `Read e | None -> ()
  in
  let rec stmt_list guards stmts = List.iter (one guards) stmts
  and one guards s =
    match s.s with
    | Decl d -> decl ~guards d
    | Expr e -> expr ~guards `Read e
    | If (c, t, e) ->
        expr ~guards `Read c;
        stmt_list (c :: guards) t;
        stmt_list (c :: guards) e
    | For (init, cond, step, body) ->
        (match init with
        | Some (For_expr e) -> expr ~guards `Read e
        | Some (For_decl ds) -> List.iter (decl ~guards) ds
        | None -> ());
        Option.iter (expr ~guards `Read) cond;
        let guards' =
          match cond with Some c -> c :: guards | None -> guards
        in
        Option.iter (expr ~guards:guards' `Read) step;
        stmt_list guards' body
    | While (c, body) | Do_while (body, c) ->
        expr ~guards `Read c;
        stmt_list (c :: guards) body
    | Return (Some e) -> expr ~guards `Read e
    | Sync | Bar_sync _ -> incr interval
    | Block b -> stmt_list guards b
    | Return None | Break | Continue | Goto _ | Label _ | Nop -> ()
  in
  stmt_list [] stmts;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Substitution                                                         *)
(* ------------------------------------------------------------------ *)

(** Rename variable occurrences and declarations according to [table]
    (old name -> new name).  The caller guarantees freshness of targets
    (see {!Hfuse_frontend.Rename}), so this is plain simultaneous
    substitution. *)
let rename_stmts (table : (string, string) Hashtbl.t) (stmts : stmt list) :
    stmt list =
  let rn x = Option.value (Hashtbl.find_opt table x) ~default:x in
  let rename_decl d = { d with d_name = rn d.d_name } in
  let stmts =
    map_stmts_expr
      (fun e -> match e with Var x -> Var (rn x) | e -> e)
      stmts
  in
  map_stmts
    (fun s ->
      match s.s with
      | Decl d -> [ { s with s = Decl (rename_decl d) } ]
      | For (Some (For_decl ds), c, st, body) ->
          [
            {
              s with
              s = For (Some (For_decl (List.map rename_decl ds)), c, st, body);
            };
          ]
      | _ -> [ s ])
    stmts

(** Substitute expressions for variables: every [Var x] with [x] in the
    table becomes the associated expression.  Declarations are not
    touched. *)
let subst_vars (table : (string, expr) Hashtbl.t) (stmts : stmt list) :
    stmt list =
  map_stmts_expr
    (fun e ->
      match e with
      | Var x -> (
          match Hashtbl.find_opt table x with Some e' -> e' | None -> e)
      | e -> e)
    stmts

(** Replace built-in special values using [f]; [f] returning [None] keeps
    the builtin unchanged. *)
let replace_builtins (f : builtin -> expr option) (stmts : stmt list) :
    stmt list =
  map_stmts_expr
    (fun e ->
      match e with
      | Builtin b -> ( match f b with Some e' -> e' | None -> e)
      | e -> e)
    stmts

(* ------------------------------------------------------------------ *)
(* Structural equality (ignores locations)                              *)
(* ------------------------------------------------------------------ *)

let equal_expr (a : expr) (b : expr) = a = b
(* expressions carry no locations, so structural equality is exact *)

let rec equal_stmt (a : stmt) (b : stmt) =
  match (a.s, b.s) with
  | Decl da, Decl db -> da = db
  | Expr ea, Expr eb -> ea = eb
  | If (ca, ta, ea), If (cb, tb, eb) ->
      ca = cb && equal_stmts ta tb && equal_stmts ea eb
  | For (ia, ca, sa, ba), For (ib, cb, sb, bb) ->
      ia = ib && ca = cb && sa = sb && equal_stmts ba bb
  | While (ca, ba), While (cb, bb) -> ca = cb && equal_stmts ba bb
  | Do_while (ba, ca), Do_while (bb, cb) -> ca = cb && equal_stmts ba bb
  | Return a, Return b -> a = b
  | Break, Break
  | Continue, Continue
  | Sync, Sync
  | Nop, Nop ->
      true
  | Bar_sync (i, n), Bar_sync (j, m) -> i = j && n = m
  | Goto a, Goto b | Label a, Label b -> String.equal a b
  | Block a, Block b -> equal_stmts a b
  | _ -> false

and equal_stmts a b =
  List.length a = List.length b && List.for_all2 equal_stmt a b

(** Statement equality modulo trivial structure: [Nop]s and singleton
    [Block]s are flattened away first.  Useful for round-trip tests where
    the printer introduces `l:;` forms. *)
let rec normalize (stmts : stmt list) : stmt list =
  List.concat_map
    (fun s ->
      match s.s with
      | Nop -> []
      | Block b -> normalize b
      | If (c, t, e) -> [ { s with s = If (c, normalize t, normalize e) } ]
      | For (i, c, st, b) -> [ { s with s = For (i, c, st, normalize b) } ]
      | While (c, b) -> [ { s with s = While (c, normalize b) } ]
      | Do_while (b, c) -> [ { s with s = Do_while (normalize b, c) } ]
      | _ -> [ s ])
    stmts

let equal_normalized a b = equal_stmts (normalize a) (normalize b)
