(* Fresh-name generation and alpha-renaming.

   HFuse copies local-variable declarations from both input kernels into
   the fused kernel (Fig. 5, line 2) and must "properly rename these local
   variables to make sure each of them has a fresh name" (Section II-C).
   This module provides the freshness discipline: a [pool] of taken names
   and capture-free renaming of a kernel body against that pool. *)

open Cuda

type pool = { taken : (string, unit) Hashtbl.t }

let create () = { taken = Hashtbl.create 64 }

let of_names names =
  let p = create () in
  List.iter (fun n -> Hashtbl.replace p.taken n ()) names;
  p

let mem p name = Hashtbl.mem p.taken name
let reserve p name = Hashtbl.replace p.taken name ()
let names p = Hashtbl.fold (fun k () acc -> k :: acc) p.taken []

(** Smallest [base], [base_1], [base_2], ... not yet in the pool; the
    result is reserved before returning. *)
let fresh p base =
  let name =
    if not (mem p base) then base
    else begin
      let rec go i =
        let cand = Printf.sprintf "%s_%d" base i in
        if mem p cand then go (i + 1) else cand
      in
      go 1
    end
  in
  reserve p name;
  name

(** Rename every local declared in [stmts] (including for-init decls) so
    that no declared name collides with the pool; returns the rewritten
    statements and the (old -> new) table.  Names already unique are kept
    (and reserved).  Parameters are renamed by the caller via the same
    table mechanism if needed. *)
let rename_locals (p : pool) (stmts : Ast.stmt list) :
    Ast.stmt list * (string, string) Hashtbl.t =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (d : Ast.decl) ->
      let fresh_name = fresh p d.d_name in
      if not (String.equal fresh_name d.d_name) then
        Hashtbl.replace table d.d_name fresh_name)
    (Ast_util.collect_decls stmts);
  (Ast_util.rename_stmts table stmts, table)

(** Rename the labels of [stmts] to be disjoint from [taken_labels];
    rewrites both [Label] and [Goto] statements. *)
let rename_labels (p : pool) (stmts : Ast.stmt list) : Ast.stmt list =
  let table = Hashtbl.create 4 in
  Ast_util.StrSet.iter
    (fun l ->
      let fresh_name = fresh p l in
      if not (String.equal fresh_name l) then Hashtbl.replace table l fresh_name)
    (Ast_util.labels stmts);
  if Hashtbl.length table = 0 then stmts
  else
    Ast_util.map_stmts
      (fun s ->
        match s.s with
        | Goto l -> (
            match Hashtbl.find_opt table l with
            | Some l' -> [ { s with s = Goto l' } ]
            | None -> [ s ])
        | Label l -> (
            match Hashtbl.find_opt table l with
            | Some l' -> [ { s with s = Label l' } ]
            | None -> [ s ])
        | _ -> [ s ])
      stmts

(** Uniquify shadowing declarations *within* one kernel body: C allows the
    same name to be declared in sibling or nested scopes; after
    declaration lifting (see {!Lift_decls}) all declarations live in one
    scope, so they must be distinct first.  Walks the statements with a
    scoped environment, renaming any declaration whose name is already
    visible.  Subtrees with nothing renamed are shared, not copied. *)
let uniquify_shadowing (stmts : Ast.stmt list) : Ast.stmt list =
  let p = create () in
  (* Reserve every free name (parameters etc.) so locals can't capture. *)
  Ast_util.StrSet.iter (reserve p) (Ast_util.free_names stmts);
  (* the visible declarations, innermost binding of a name first: a
     scope [Hashtbl.add]s its bindings and removes them when it ends *)
  let env : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let renamed = ref 0 in
  (* [renamed] counts the visible bindings that change a name; while it
     is 0 every expression is left as it is *)
  let bind (x, x') =
    Hashtbl.add env x x';
    if not (String.equal x x') then incr renamed
  in
  let unbind (x, x') =
    Hashtbl.remove env x;
    if not (String.equal x x') then decr renamed
  in
  let rewrite_expr e =
    if !renamed = 0 then e
    else
      Ast_util.map_expr
        (fun e ->
          match e with
          | Var x -> (
              match Hashtbl.find_opt env x with
              | Some x' when not (String.equal x x') -> Var x'
              | _ -> e)
          | e -> e)
        e
  in
  let rename_decl (d : Ast.decl) : Ast.decl * (string * string) =
    let new_name =
      if mem p d.d_name then fresh p d.d_name
      else begin
        reserve p d.d_name;
        d.d_name
      end
    in
    let init = Ast_util.map_opt rewrite_expr d.d_init in
    let d' =
      if String.equal new_name d.d_name && init == d.d_init then d
      else { d with d_name = new_name; d_init = init }
    in
    (d', (d.d_name, new_name))
  in
  (* a statement list is a scope: its declarations are visible to the
     statements after them and gone at its end *)
  let rec go_list stmts =
    let bound = ref [] in
    let stmts' =
      Ast_util.map_list
        (fun (s : Ast.stmt) ->
          match s.s with
          | Decl d ->
              let d', binding = rename_decl d in
              bind binding;
              bound := binding :: !bound;
              if d' == d then s else { s with s = Decl d' }
          | _ -> go_stmt s)
        stmts
    in
    List.iter unbind !bound;
    stmts'
  and go_stmt (s : Ast.stmt) : Ast.stmt =
    let desc : Ast.stmt_desc =
      match s.s with
      | Decl _ -> assert false
      | Expr e ->
          let e' = rewrite_expr e in
          if e' == e then s.s else Expr e'
      | If (c, t, e) ->
          (* the else branch first, the order its names were always
             drawn in *)
          let e' = go_list e in
          let t' = go_list t in
          let c' = rewrite_expr c in
          if c' == c && t' == t && e' == e then s.s else If (c', t', e')
      | For (init, cond, step, body) ->
          let init', bound =
            match init with
            | None -> (init, [])
            | Some (Ast.For_expr e) ->
                let e' = rewrite_expr e in
                ((if e' == e then init else Some (Ast.For_expr e')), [])
            | Some (Ast.For_decl ds) ->
                let bound = ref [] in
                let ds' =
                  Ast_util.map_list
                    (fun d ->
                      let d', binding = rename_decl d in
                      bind binding;
                      bound := binding :: !bound;
                      d')
                    ds
                in
                ((if ds' == ds then init else Some (Ast.For_decl ds')), !bound)
          in
          let body' = go_list body in
          let step' = Ast_util.map_opt rewrite_expr step in
          let cond' = Ast_util.map_opt rewrite_expr cond in
          List.iter unbind bound;
          if init' == init && cond' == cond && step' == step && body' == body
          then s.s
          else For (init', cond', step', body')
      | While (c, body) ->
          let body' = go_list body in
          let c' = rewrite_expr c in
          if c' == c && body' == body then s.s else While (c', body')
      | Do_while (body, c) ->
          let body' = go_list body in
          let c' = rewrite_expr c in
          if c' == c && body' == body then s.s else Do_while (body', c')
      | Return e ->
          let e' = Ast_util.map_opt rewrite_expr e in
          if e' == e then s.s else Return e'
      | Block b ->
          let b' = go_list b in
          if b' == b then s.s else Block b'
      | (Break | Continue | Sync | Bar_sync _ | Goto _ | Label _ | Nop) as d
        ->
          d
    in
    if desc == s.s then s else { s with s = desc }
  in
  go_list stmts
