(** Generic traversals and queries over the CUDA AST: the workhorses of
    the frontend passes. *)

module StrSet : Set.S with type elt = string

(** [List.map] answering the list itself, not a copy, when [f] returns
    every element physically unchanged. *)
val map_list : ('a -> 'a) -> 'a list -> 'a list

(** [Option.map] with the same sharing as {!map_list}. *)
val map_opt : ('a -> 'a) -> 'a option -> 'a option

(** Bottom-up expression rewriting (children first, then [f]).  This and
    the statement maps below return unchanged subtrees physically
    shared, so a rewrite that changes nothing allocates nothing. *)
val map_expr : (Ast.expr -> Ast.expr) -> Ast.expr -> Ast.expr

(** Pre-order fold over all sub-expressions. *)
val fold_expr : ('a -> Ast.expr -> 'a) -> 'a -> Ast.expr -> 'a

(** Rewrite every expression inside the statements. *)
val map_stmts_expr : (Ast.expr -> Ast.expr) -> Ast.stmt list -> Ast.stmt list

(** Structure-preserving statement rewriting; [f] runs after children
    and may expand one statement into several. *)
val map_stmts : (Ast.stmt -> Ast.stmt list) -> Ast.stmt list -> Ast.stmt list

(** Pre-order fold over every statement, descending into nesting. *)
val fold_stmts : ('a -> Ast.stmt -> 'a) -> 'a -> Ast.stmt list -> 'a

val iter_stmts : (Ast.stmt -> unit) -> Ast.stmt list -> unit

(** Fold over every expression occurring anywhere in the statements. *)
val fold_stmts_expr : ('a -> Ast.expr -> 'a) -> 'a -> Ast.stmt list -> 'a

(** All local declarations (including nested and for-init), in order. *)
val collect_decls : Ast.stmt list -> Ast.decl list

val declared_names : Ast.stmt list -> string list
val used_names : Ast.stmt list -> StrSet.t

(** Referenced but not locally declared (parameters, globals). *)
val free_names : Ast.stmt list -> StrSet.t

val called_names : Ast.stmt list -> StrSet.t
val labels : Ast.stmt list -> StrSet.t
val has_barrier : Ast.stmt list -> bool
val barrier_count : Ast.stmt list -> int
val used_builtins : Ast.stmt list -> Ast.builtin list

(** Fold over every statement together with the conditions of its
    enclosing [If]/loop constructs, innermost first.  Loop conditions
    count as guards: a barrier inside a loop whose trip count varies per
    thread diverges just like one under a thread-dependent [If]. *)
val fold_stmts_guarded :
  ('a -> guards:Ast.expr list -> Ast.stmt -> 'a) -> 'a -> Ast.stmt list -> 'a

(** May the expression evaluate differently on two threads of the same
    block, given the set [tainted] of thread-dependent variables?
    Memory reads count as thread-dependent (no points-to analysis). *)
val expr_thread_dependent : tainted:StrSet.t -> Ast.expr -> bool

(** Fixpoint taint analysis: variables that may hold values differing
    across threads of a block.  Address-taken variables and the
    caller-supplied [seeds] (variables defined outside the analysed
    statements) seed the set; parameters and block-level builtins are
    uniform. *)
val thread_dependent_vars : ?seeds:StrSet.t -> Ast.stmt list -> StrSet.t

(** One array access, as collected by {!array_accesses}. *)
type access = {
  acc_array : string;  (** base variable being indexed *)
  acc_index : Ast.expr;
  acc_kind : [ `Read | `Write | `Atomic ];
  acc_guards : Ast.expr list;  (** enclosing structured conditions *)
  acc_interval : int;
      (** barrier statements seen before this access in pre-order; two
          accesses with different intervals are (best-effort) separated
          by a barrier *)
}

(** All [a\[i\]] accesses, classified read/write/atomic, with guard
    context and barrier interval.  [&a\[i\]] passed to an [atomic*]
    intrinsic is atomic; passed elsewhere it is conservatively a
    write. *)
val array_accesses : Ast.stmt list -> access list

(** Simultaneous variable renaming of occurrences and declarations;
    the caller guarantees target freshness. *)
val rename_stmts :
  (string, string) Hashtbl.t -> Ast.stmt list -> Ast.stmt list

(** Substitute expressions for variables (declarations untouched). *)
val subst_vars : (string, Ast.expr) Hashtbl.t -> Ast.stmt list -> Ast.stmt list

(** Replace builtins via [f]; [None] keeps the builtin. *)
val replace_builtins :
  (Ast.builtin -> Ast.expr option) -> Ast.stmt list -> Ast.stmt list

val equal_expr : Ast.expr -> Ast.expr -> bool
val equal_stmts : Ast.stmt list -> Ast.stmt list -> bool

(** Drop [Nop]s and flatten bare blocks (for round-trip comparison). *)
val normalize : Ast.stmt list -> Ast.stmt list

val equal_normalized : Ast.stmt list -> Ast.stmt list -> bool
