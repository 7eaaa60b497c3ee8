(* CUDA source emission.

   HFuse is a source-to-source compiler: its output is compilable CUDA-C.
   The printer is precedence-aware (it inserts only the parentheses the
   grammar needs) and is exercised by a parse/print round-trip property
   test.

   Everything is written straight into one [Buffer].  Every
   profile-cache and trace-store key digests the printed source, so the
   layout must not move by a byte (test/golden/pretty.md5 pins it): a
   braced body indents its statements two columns past the line that
   opens it, and the indentation stops growing at column 68, so
   statements nested deeper than that all start at column 68. *)

open Ast

let prec_of_binop : binop -> int = function
  | Lor -> 0
  | Land -> 1
  | Bor -> 2
  | Bxor -> 3
  | Band -> 4
  | Eq | Ne -> 5
  | Lt | Le | Gt | Ge -> 6
  | Shl | Shr -> 7
  | Add | Sub -> 8
  | Mul | Div | Mod -> 9

(* Precedence of a whole expression, for parenthesisation decisions.
   Higher binds tighter.  Assignment/ternary are the loosest (-2/-1);
   unary = 10; postfix/primary = 11. *)
let prec_of_expr = function
  | Assign _ | Op_assign _ -> -2
  | Ternary _ -> -1
  | Binop (op, _, _) -> prec_of_binop op
  | Unop _ | Cast _ | Deref _ | Addr_of _ | Incdec { pre = true; _ } -> 10
  | _ -> 11

let string_of_binop : binop -> string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Land -> "&&"
  | Lor -> "||"
  | Band -> "&"
  | Bor -> "|"
  | Bxor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let string_of_dim = function X -> "x" | Y -> "y" | Z -> "z"

let string_of_builtin = function
  | Thread_idx d -> "threadIdx." ^ string_of_dim d
  | Block_idx d -> "blockIdx." ^ string_of_dim d
  | Block_dim d -> "blockDim." ^ string_of_dim d
  | Grid_dim d -> "gridDim." ^ string_of_dim d

let float_lit_to_string v (ty : Ctype.t) =
  let s =
    if Float.is_integer v && Float.abs v < 1e16 then
      Printf.sprintf "%.1f" v
    else Printf.sprintf "%.17g" v
  in
  match ty with Float -> s ^ "f" | _ -> s

let int_lit_to_string v (ty : Ctype.t) =
  let suffix =
    match ty with
    | UInt -> "u"
    | Long -> "ll"
    | ULong -> "ull"
    | _ -> ""
  in
  Int64.to_string v ^ suffix

(* Statements nested past this column start at it. *)
let max_indent = 68

let rec add_expr b e = add_expr_prec b (-3) e

(* [ctx] is the loosest precedence allowed without parentheses. *)
and add_expr_prec b ctx e =
  let str = Buffer.add_string b in
  let sub ctx e = add_expr_prec b ctx e in
  let prefix op e =
    str op;
    sub 10 e
  in
  (* [l op r], each side at its own precedence *)
  let infix l lp op r rp =
    sub lp l;
    str " ";
    str op;
    str " ";
    sub rp r
  in
  let wrap = prec_of_expr e < ctx in
  if wrap then str "(";
  (match e with
  | Int_lit (v, ty) -> str (int_lit_to_string v ty)
  | Float_lit (v, ty) -> str (float_lit_to_string v ty)
  | Bool_lit v -> str (if v then "true" else "false")
  | Var x -> str x
  | Builtin bi -> str (string_of_builtin bi)
  | Unop (Neg, e) ->
      (* avoid "--x": separate a negation whose operand also prints a
         leading '-' so the lexer does not see a pre-decrement *)
      let leading_minus =
        match e with
        | Unop (Neg, _) | Incdec { pre = true; inc = false; _ } -> true
        | Int_lit (v, _) -> Int64.compare v 0L < 0
        | Float_lit (v, _) -> v < 0.0 || 1.0 /. v = neg_infinity
        | _ -> false
      in
      if leading_minus then begin
        str "-(";
        add_expr b e;
        str ")"
      end
      else prefix "-" e
  | Unop (Lnot, e) -> prefix "!" e
  | Unop (Bnot, e) -> prefix "~" e
  | Deref e -> prefix "*" e
  | Addr_of e -> prefix "&" e
  | Cast (t, e) -> prefix ("(" ^ Ctype.to_string t ^ ")") e
  | Binop (op, l, r) ->
      (* left-associative: left child may be at the same level, the right
         child must bind strictly tighter *)
      let bp = prec_of_binop op in
      infix l bp (string_of_binop op) r (bp + 1)
  | Assign (l, r) -> infix l (-1) "=" r (-2)
  | Op_assign (op, l, r) -> infix l (-1) (string_of_binop op ^ "=") r (-2)
  | Incdec { pre = true; inc; lval } -> prefix (if inc then "++" else "--") lval
  | Incdec { pre = false; inc; lval } ->
      sub 11 lval;
      str (if inc then "++" else "--")
  | Ternary (c, t, f) ->
      sub 0 c;
      str " ? ";
      sub (-2) t;
      str " : ";
      sub (-1) f
  | Call (f, args) ->
      str f;
      str "(";
      List.iteri
        (fun i a ->
          if i > 0 then str ", ";
          sub (-2) a)
        args;
      str ")"
  | Index (a, i) ->
      sub 11 a;
      str "[";
      add_expr b i;
      str "]");
  if wrap then str ")"

let add_decl b (d : decl) =
  let str = Buffer.add_string b in
  str
    (match d.d_storage with
    | Local -> ""
    | Shared -> "__shared__ "
    | Shared_extern -> "extern __shared__ ");
  let base, suffix = Ctype.base_and_suffix d.d_type in
  str (Ctype.to_string base);
  str " ";
  str d.d_name;
  str suffix;
  (match d.d_init with
  | None -> ()
  | Some e ->
      str " = ";
      add_expr b e);
  str ";"

(* A line break followed by [ind] columns of indentation. *)
let newline b ind =
  Buffer.add_char b '\n';
  for _ = 1 to ind do
    Buffer.add_char b ' '
  done

(* [add_stmt b ind s] prints [s] at the current position, which is
   column [ind]: a braced body goes on the following lines at
   [ind + 2] (at most {!max_indent}), and its closing brace at [ind]. *)
let rec add_stmt b ind (s : stmt) =
  let str = Buffer.add_string b in
  let body stmts =
    add_stmts b (min max_indent (ind + 2)) stmts;
    newline b ind
  in
  match s.s with
  | Decl d -> add_decl b d
  | Expr e ->
      add_expr b e;
      str ";"
  | If (c, t, e) ->
      str "if (";
      add_expr b c;
      str ") {";
      body t;
      if e <> [] then begin
        str "} else {";
        body e
      end;
      str "}"
  | For (init, cond, step, stmts) ->
      str "for (";
      (match init with
      | None -> ()
      | Some (For_expr e) -> add_expr b e
      | Some (For_decl ds) -> (
          (* all declarators share the base type by construction *)
          match ds with
          | [] -> ()
          | d0 :: _ ->
              str (Ctype.to_string (fst (Ctype.base_and_suffix d0.d_type)));
              str " ";
              List.iteri
                (fun i (d : decl) ->
                  if i > 0 then str ", ";
                  str d.d_name;
                  match d.d_init with
                  | None -> ()
                  | Some e ->
                      str " = ";
                      add_expr b e)
                ds));
      str "; ";
      Option.iter (add_expr b) cond;
      str "; ";
      Option.iter (add_expr b) step;
      str ") {";
      body stmts;
      str "}"
  | While (c, stmts) ->
      str "while (";
      add_expr b c;
      str ") {";
      body stmts;
      str "}"
  | Do_while (stmts, c) ->
      str "do {";
      body stmts;
      str "} while (";
      add_expr b c;
      str ");"
  | Return None -> str "return;"
  | Return (Some e) ->
      str "return ";
      add_expr b e;
      str ";"
  | Break -> str "break;"
  | Continue -> str "continue;"
  | Sync -> str "__syncthreads();"
  | Bar_sync (id, n) -> Printf.bprintf b "asm(\"bar.sync %d, %d;\");" id n
  | Goto l ->
      str "goto ";
      str l;
      str ";"
  | Label l ->
      str l;
      str ":;"
  | Block stmts ->
      str "{";
      body stmts;
      str "}"
  | Nop -> str ";"

(* each statement on a line of its own at column [ind] *)
and add_stmts b ind stmts =
  List.iter
    (fun s ->
      newline b ind;
      add_stmt b ind s)
    stmts

let add_fn b (f : fn) =
  let str = Buffer.add_string b in
  str (match f.f_kind with Global -> "__global__" | Device -> "__device__");
  Option.iter (Printf.bprintf b " __launch_bounds__(%d)") f.f_launch_bounds;
  str " ";
  str (Ctype.to_string f.f_ret);
  str " ";
  str f.f_name;
  str "(";
  List.iteri
    (fun i (p : param) ->
      if i > 0 then str ", ";
      str (Ctype.to_string p.p_type);
      str " ";
      str p.p_name)
    f.f_params;
  str ") {";
  add_stmts b 2 f.f_body;
  newline b 0;
  str "}"

let to_string add x =
  let b = Buffer.create 1024 in
  add b x;
  Buffer.contents b

let expr_to_string e = to_string add_expr e
let stmt_to_string s = to_string (fun b -> add_stmt b 0) s
let fn_to_string f = to_string add_fn f

let program_to_string (p : program) =
  to_string
    (fun b p ->
      List.iter (fun (k, v) -> Printf.bprintf b "#define %s %Ld\n" k v) p.defines;
      List.iteri
        (fun i f ->
          if i > 0 then Buffer.add_string b "\n\n";
          add_fn b f)
        p.functions)
    p
