(* Recursive-descent parser for the CUDA-C subset.

   Expressions are parsed with classic precedence climbing over the full C
   operator table.  Declarations are distinguished from expression
   statements by their leading type keyword (the subset has no typedef, so
   no symbol table is needed for disambiguation — the same property Clang
   exploits for CUDA's device-side subset after preprocessing).

   Two pieces of CUDA-specific sugar are resolved here:
   - [threadIdx.x] / [blockIdx.y] / ... become {!Ast.Builtin} nodes;
   - [#define NAME <int>] constants recorded by the lexer are substituted
     for their value wherever the name appears, implementing the paper's
     "macros are preprocessed" assumption (Section III-C). *)

exception Error of string * Loc.t

type state = {
  lexed : Lexer.lexed;
  mutable idx : int;
  mutable cur : Token.t;  (** token [idx], read once per step *)
  defines : (string, int64) Hashtbl.t;
}

let start lexed defines =
  { lexed; idx = 0; cur = Lexer.token lexed 0; defines }

let peek_loc st = Lexer.loc_at st.lexed st.idx
let error st msg = raise (Error (msg, peek_loc st))
let peek st = st.cur

let peek_n st n =
  let i = st.idx + n in
  if i < st.lexed.count then Lexer.token st.lexed i else Token.EOF

let next st =
  let t = st.cur in
  if st.idx < st.lexed.count - 1 then begin
    st.idx <- st.idx + 1;
    st.cur <- Lexer.token st.lexed st.idx
  end;
  t

(* punctuation is immediate, so most comparisons end at [==] *)
let[@inline] is st tok = st.cur == tok || Token.equal st.cur tok

let expect st tok =
  if is st tok then ignore (next st)
  else
    error st
      (Fmt.str "expected %a but found %a" Token.pp tok Token.pp st.cur)

let accept st tok =
  if is st tok then (
    ignore (next st);
    true)
  else false

let expect_ident st =
  match peek st with
  | Token.IDENT s ->
      ignore (next st);
      s
  | t -> error st (Fmt.str "expected identifier but found %a" Token.pp t)

(* ------------------------------------------------------------------ *)
(* Types                                                                *)
(* ------------------------------------------------------------------ *)

let is_type_start_kw = function
  | "void" | "bool" | "char" | "short" | "int" | "long" | "float" | "double"
  | "signed" | "unsigned" | "const" | "volatile" | "restrict"
  | "__restrict__" | "uint8_t" | "uint16_t" | "uint32_t" | "uint64_t"
  | "int8_t" | "int16_t" | "int32_t" | "int64_t" | "size_t" | "uint" ->
      true
  | _ -> false

let starts_type st =
  match peek st with Token.KW k -> is_type_start_kw k | _ -> false

(* Parses a type specifier: sign/size keywords plus trailing '*'s.
   Qualifiers (const/volatile/restrict) are accepted and dropped — they do
   not affect fusion or simulation semantics. *)
let parse_base_type st =
  let signedness = ref None (* Some true = unsigned *) in
  let base = ref None in
  let longs = ref 0 in
  let rec specifiers () =
    match peek st with
    | Token.KW ("const" | "volatile" | "restrict" | "__restrict__") ->
        ignore (next st);
        specifiers ()
    | Token.KW "unsigned" ->
        ignore (next st);
        signedness := Some true;
        specifiers ()
    | Token.KW "signed" ->
        ignore (next st);
        signedness := Some false;
        specifiers ()
    | Token.KW "long" ->
        ignore (next st);
        incr longs;
        specifiers ()
    | Token.KW (("void" | "bool" | "char" | "short" | "int" | "float"
                | "double" | "uint8_t" | "uint16_t" | "uint32_t" | "uint64_t"
                | "int8_t" | "int16_t" | "int32_t" | "int64_t" | "size_t"
                | "uint") as k) ->
        ignore (next st);
        base := Some k;
        specifiers ()
    | _ -> ()
  in
  specifiers ();
  let unsigned = !signedness = Some true in
  let t : Ctype.t =
    match (!base, !longs) with
    | Some "void", _ -> Void
    | Some "bool", _ -> Bool
    | Some "char", _ -> if unsigned then UChar else Char
    | Some "short", _ -> if unsigned then UShort else Short
    | Some "int", 0 -> if unsigned then UInt else Int
    | Some "int", _ -> if unsigned then ULong else Long
    | Some "float", _ -> Float
    | Some "double", _ -> Double
    | Some "uint8_t", _ -> UChar
    | Some "int8_t", _ -> Char
    | Some "uint16_t", _ -> UShort
    | Some "int16_t", _ -> Short
    | Some "uint32_t", _ | Some "uint", _ -> UInt
    | Some "int32_t", _ -> Int
    | Some "uint64_t", _ | Some "size_t", _ -> ULong
    | Some "int64_t", _ -> Long
    | None, n when n > 0 -> if unsigned then ULong else Long
    | None, _ when !signedness <> None -> if unsigned then UInt else Int
    | None, _ -> error st "expected type specifier"
    | Some k, _ -> error st ("unsupported type specifier " ^ k)
  in
  let t = ref t in
  while accept st Token.STAR do
    (* const after '*' *)
    (match peek st with
    | Token.KW ("const" | "volatile" | "restrict" | "__restrict__") ->
        ignore (next st)
    | _ -> ());
    t := Ctype.Ptr !t
  done;
  !t

(* ------------------------------------------------------------------ *)
(* Constant folding (array dimensions, barrier operands)               *)
(* ------------------------------------------------------------------ *)

let rec const_eval_opt (e : Ast.expr) : int64 option =
  let open Ast in
  let ( let* ) = Option.bind in
  match e with
  | Int_lit (v, _) -> Some v
  | Bool_lit b -> Some (if b then 1L else 0L)
  | Unop (Neg, e) ->
      let* v = const_eval_opt e in
      Some (Int64.neg v)
  | Unop (Bnot, e) ->
      let* v = const_eval_opt e in
      Some (Int64.lognot v)
  | Unop (Lnot, e) ->
      let* v = const_eval_opt e in
      Some (if Int64.equal v 0L then 1L else 0L)
  | Binop (op, a, b) -> (
      let* x = const_eval_opt a in
      let* y = const_eval_opt b in
      match op with
      | Add -> Some (Int64.add x y)
      | Sub -> Some (Int64.sub x y)
      | Mul -> Some (Int64.mul x y)
      | Div -> if Int64.equal y 0L then None else Some (Int64.div x y)
      | Mod -> if Int64.equal y 0L then None else Some (Int64.rem x y)
      | Shl -> Some (Int64.shift_left x (Int64.to_int y land 63))
      | Shr -> Some (Int64.shift_right x (Int64.to_int y land 63))
      | Band -> Some (Int64.logand x y)
      | Bor -> Some (Int64.logor x y)
      | Bxor -> Some (Int64.logxor x y)
      | Land -> Some (if Int64.equal x 0L || Int64.equal y 0L then 0L else 1L)
      | Lor -> Some (if Int64.equal x 0L && Int64.equal y 0L then 0L else 1L)
      | Eq -> Some (if Int64.equal x y then 1L else 0L)
      | Ne -> Some (if Int64.equal x y then 0L else 1L)
      | Lt -> Some (if Int64.compare x y < 0 then 1L else 0L)
      | Le -> Some (if Int64.compare x y <= 0 then 1L else 0L)
      | Gt -> Some (if Int64.compare x y > 0 then 1L else 0L)
      | Ge -> Some (if Int64.compare x y >= 0 then 1L else 0L))
  | Ternary (c, a, b) ->
      let* c = const_eval_opt c in
      if Int64.equal c 0L then const_eval_opt b else const_eval_opt a
  | Cast (t, e) when Ctype.is_integer t -> const_eval_opt e
  | _ -> None

let const_eval st e =
  match const_eval_opt e with
  | Some v -> Int64.to_int v
  | None -> error st "expected integer constant expression"

(* ------------------------------------------------------------------ *)
(* Expressions                                                          *)
(* ------------------------------------------------------------------ *)

let builtin_of st base field : Ast.builtin =
  let dim : Ast.dim =
    match field with
    | "x" -> X
    | "y" -> Y
    | "z" -> Z
    | f -> error st ("unknown builtin field ." ^ f)
  in
  match base with
  | "threadIdx" -> Thread_idx dim
  | "blockIdx" -> Block_idx dim
  | "blockDim" -> Block_dim dim
  | "gridDim" -> Grid_dim dim
  | b -> error st ("unknown builtin " ^ b)

let is_builtin_base = function
  | "threadIdx" | "blockIdx" | "blockDim" | "gridDim" -> true
  | _ -> false

let rec parse_expr st : Ast.expr = parse_assign st

and parse_assign st =
  let lhs = parse_ternary st in
  match peek st with
  | Token.ASSIGN ->
      ignore (next st);
      Ast.Assign (lhs, parse_assign st)
  | Token.PLUS_ASSIGN ->
      ignore (next st);
      Ast.Op_assign (Add, lhs, parse_assign st)
  | Token.MINUS_ASSIGN ->
      ignore (next st);
      Ast.Op_assign (Sub, lhs, parse_assign st)
  | Token.STAR_ASSIGN ->
      ignore (next st);
      Ast.Op_assign (Mul, lhs, parse_assign st)
  | Token.SLASH_ASSIGN ->
      ignore (next st);
      Ast.Op_assign (Div, lhs, parse_assign st)
  | Token.PERCENT_ASSIGN ->
      ignore (next st);
      Ast.Op_assign (Mod, lhs, parse_assign st)
  | Token.AMP_ASSIGN ->
      ignore (next st);
      Ast.Op_assign (Band, lhs, parse_assign st)
  | Token.PIPE_ASSIGN ->
      ignore (next st);
      Ast.Op_assign (Bor, lhs, parse_assign st)
  | Token.CARET_ASSIGN ->
      ignore (next st);
      Ast.Op_assign (Bxor, lhs, parse_assign st)
  | Token.LSHIFT_ASSIGN ->
      ignore (next st);
      Ast.Op_assign (Shl, lhs, parse_assign st)
  | Token.RSHIFT_ASSIGN ->
      ignore (next st);
      Ast.Op_assign (Shr, lhs, parse_assign st)
  | _ -> lhs

and parse_ternary st =
  let c = parse_binary st 0 in
  if accept st Token.QUESTION then begin
    let a = parse_assign st in
    expect st Token.COLON;
    let b = parse_assign st in
    Ast.Ternary (c, a, b)
  end
  else c

(* Binary operators by precedence level, loosest first. *)
and binop_of_token (t : Token.t) : (Ast.binop * int) option =
  match t with
  | OROR -> Some (Lor, 0)
  | ANDAND -> Some (Land, 1)
  | PIPE -> Some (Bor, 2)
  | CARET -> Some (Bxor, 3)
  | AMP -> Some (Band, 4)
  | EQEQ -> Some (Eq, 5)
  | NEQ -> Some (Ne, 5)
  | LT -> Some (Lt, 6)
  | GT -> Some (Gt, 6)
  | LE -> Some (Le, 6)
  | GE -> Some (Ge, 6)
  | LSHIFT -> Some (Shl, 7)
  | RSHIFT -> Some (Shr, 7)
  | PLUS -> Some (Add, 8)
  | MINUS -> Some (Sub, 8)
  | STAR -> Some (Mul, 9)
  | SLASH -> Some (Div, 9)
  | PERCENT -> Some (Mod, 9)
  | _ -> None

and parse_binary st min_prec =
  let lhs = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match binop_of_token (peek st) with
    | Some (op, prec) when prec >= min_prec ->
        ignore (next st);
        let rhs = parse_binary st (prec + 1) in
        lhs := Ast.Binop (op, !lhs, rhs)
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary st =
  match peek st with
  | Token.MINUS -> (
      ignore (next st);
      (* fold negation of a literal so negative constants have one
         canonical AST form: [-3.0f] parses as [Float_lit (-3.0)], the
         same shape the pretty-printer emits it from.  Without the fold
         printed negative literals reparse as [Unop (Neg, lit)] and the
         round-trip property fails. *)
      match parse_unary st with
      | Ast.Int_lit (v, ty) when not (Int64.equal v Int64.min_int) ->
          Ast.Int_lit (Int64.neg v, ty)
      | Ast.Float_lit (v, ty) -> Ast.Float_lit (-.v, ty)
      | e -> Ast.Unop (Neg, e))
  | Token.BANG ->
      ignore (next st);
      Ast.Unop (Lnot, parse_unary st)
  | Token.TILDE ->
      ignore (next st);
      Ast.Unop (Bnot, parse_unary st)
  | Token.PLUS ->
      ignore (next st);
      parse_unary st
  | Token.STAR ->
      ignore (next st);
      Ast.Deref (parse_unary st)
  | Token.AMP ->
      ignore (next st);
      Ast.Addr_of (parse_unary st)
  | Token.PLUSPLUS ->
      ignore (next st);
      Ast.Incdec { pre = true; inc = true; lval = parse_unary st }
  | Token.MINUSMINUS ->
      ignore (next st);
      Ast.Incdec { pre = true; inc = false; lval = parse_unary st }
  | Token.LPAREN when (match peek_n st 1 with
                      | Token.KW k -> is_type_start_kw k
                      | _ -> false) ->
      (* cast *)
      ignore (next st);
      let t = parse_base_type st in
      expect st Token.RPAREN;
      Ast.Cast (t, parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Token.LBRACKET ->
        ignore (next st);
        let i = parse_expr st in
        expect st Token.RBRACKET;
        e := Ast.Index (!e, i)
    | Token.PLUSPLUS ->
        ignore (next st);
        e := Ast.Incdec { pre = false; inc = true; lval = !e }
    | Token.MINUSMINUS ->
        ignore (next st);
        e := Ast.Incdec { pre = false; inc = false; lval = !e }
    | _ -> continue_ := false
  done;
  !e

and parse_call_args st =
  expect st Token.LPAREN;
  if accept st Token.RPAREN then []
  else begin
    let args = ref [ parse_assign st ] in
    while accept st Token.COMMA do
      args := parse_assign st :: !args
    done;
    expect st Token.RPAREN;
    List.rev !args
  end

and parse_primary st =
  match peek st with
  | Token.INT_LIT (v, ty) ->
      ignore (next st);
      Ast.Int_lit (v, ty)
  | Token.FLOAT_LIT (v, ty) ->
      ignore (next st);
      Ast.Float_lit (v, ty)
  | Token.KW "true" ->
      ignore (next st);
      Ast.Bool_lit true
  | Token.KW "false" ->
      ignore (next st);
      Ast.Bool_lit false
  | Token.LPAREN ->
      ignore (next st);
      let e = parse_expr st in
      expect st Token.RPAREN;
      e
  | Token.IDENT name when is_builtin_base name
                          && peek_n st 1 == Token.DOT -> (
      ignore (next st);
      expect st Token.DOT;
      let field = expect_ident st in
      Ast.Builtin (builtin_of st name field))
  | Token.IDENT name -> (
      ignore (next st);
      match peek st with
      | Token.LPAREN -> Ast.Call (name, parse_call_args st)
      | _ -> (
          match
            if Hashtbl.length st.defines = 0 then None
            else Hashtbl.find_opt st.defines name
          with
          | Some v -> Ast.Int_lit (v, Ctype.Int)
          | None -> Ast.Var name))
  | t -> error st (Fmt.str "expected expression but found %a" Token.pp t)

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)
(* ------------------------------------------------------------------ *)

(* asm bodies we understand: "bar.sync <id>, <count>;" (whitespace-
   insensitive, trailing semicolon optional). *)
let parse_bar_sync_body st (s : string) : int * int =
  let s = String.trim s in
  let prefix = "bar.sync" in
  if
    String.length s < String.length prefix
    || String.sub s 0 (String.length prefix) <> prefix
  then error st ("unsupported asm body: " ^ s)
  else begin
    let rest =
      String.sub s (String.length prefix)
        (String.length s - String.length prefix)
    in
    let rest =
      match String.index_opt rest ';' with
      | Some i -> String.sub rest 0 i
      | None -> rest
    in
    match String.split_on_char ',' rest with
    | [ a; b ] -> (
        try (int_of_string (String.trim a), int_of_string (String.trim b))
        with _ -> error st ("malformed bar.sync operands: " ^ rest))
    | _ -> error st ("bar.sync expects two operands: " ^ rest)
  end

let storage_of_prefix st =
  (* [extern __shared__ T name[];] or [__shared__ T name[N];] *)
  if accept st (Token.KW "extern") then begin
    expect st (Token.KW "__shared__");
    Ast.Shared_extern
  end
  else if accept st (Token.KW "__shared__") then Ast.Shared
  else Ast.Local

let rec parse_stmt st : Ast.stmt =
  let loc = peek_loc st in
  let mk s = Ast.mk_stmt ~loc s in
  match peek st with
  | Token.SEMI ->
      ignore (next st);
      mk Ast.Nop
  | Token.LBRACE -> mk (Ast.Block (parse_block st))
  | Token.KW "if" ->
      ignore (next st);
      expect st Token.LPAREN;
      let c = parse_expr st in
      expect st Token.RPAREN;
      let then_ = parse_stmt_as_list st in
      let else_ =
        if accept st (Token.KW "else") then parse_stmt_as_list st else []
      in
      mk (Ast.If (c, then_, else_))
  | Token.KW "while" ->
      ignore (next st);
      expect st Token.LPAREN;
      let c = parse_expr st in
      expect st Token.RPAREN;
      mk (Ast.While (c, parse_stmt_as_list st))
  | Token.KW "do" ->
      ignore (next st);
      let body = parse_stmt_as_list st in
      expect st (Token.KW "while");
      expect st Token.LPAREN;
      let c = parse_expr st in
      expect st Token.RPAREN;
      expect st Token.SEMI;
      mk (Ast.Do_while (body, c))
  | Token.KW "for" ->
      ignore (next st);
      expect st Token.LPAREN;
      let init =
        if accept st Token.SEMI then None
        else if starts_type st then begin
          let ds = parse_decl_group st in
          (* parse_decl_group consumes the ';' *)
          Some (Ast.For_decl ds)
        end
        else begin
          let e = parse_expr st in
          expect st Token.SEMI;
          Some (Ast.For_expr e)
        end
      in
      let cond =
        if is st Token.SEMI then None else Some (parse_expr st)
      in
      expect st Token.SEMI;
      let step =
        if is st Token.RPAREN then None
        else Some (parse_expr st)
      in
      expect st Token.RPAREN;
      mk (Ast.For (init, cond, step, parse_stmt_as_list st))
  | Token.KW "return" ->
      ignore (next st);
      let e =
        if is st Token.SEMI then None else Some (parse_expr st)
      in
      expect st Token.SEMI;
      mk (Ast.Return e)
  | Token.KW "break" ->
      ignore (next st);
      expect st Token.SEMI;
      mk Ast.Break
  | Token.KW "continue" ->
      ignore (next st);
      expect st Token.SEMI;
      mk Ast.Continue
  | Token.KW "goto" ->
      ignore (next st);
      let l = expect_ident st in
      expect st Token.SEMI;
      mk (Ast.Goto l)
  | Token.KW "asm" ->
      ignore (next st);
      (* optional 'volatile' *)
      (match peek st with
      | Token.KW "volatile" -> ignore (next st)
      | Token.IDENT "volatile" -> ignore (next st)
      | _ -> ());
      expect st Token.LPAREN;
      let body =
        match next st with
        | Token.STRING_LIT s -> s
        | t -> error st (Fmt.str "expected asm string, found %a" Token.pp t)
      in
      expect st Token.RPAREN;
      expect st Token.SEMI;
      let id, count = parse_bar_sync_body st body in
      mk (Ast.Bar_sync (id, count))
  | Token.KW ("extern" | "__shared__") -> parse_decl_stmt st ~loc
  | Token.KW k when is_type_start_kw k -> parse_decl_stmt st ~loc
  | Token.IDENT l when peek_n st 1 == Token.COLON ->
      ignore (next st);
      ignore (next st);
      mk (Ast.Label l)
  | Token.IDENT "__syncthreads" when peek_n st 1 == Token.LPAREN ->
      ignore (next st);
      expect st Token.LPAREN;
      expect st Token.RPAREN;
      expect st Token.SEMI;
      mk Ast.Sync
  | _ ->
      let e = parse_expr st in
      expect st Token.SEMI;
      mk (Ast.Expr e)

and parse_stmt_as_list st : Ast.stmt list =
  match peek st with
  | Token.LBRACE -> parse_block st
  | _ -> [ parse_stmt st ]

and parse_block st : Ast.stmt list =
  expect st Token.LBRACE;
  let stmts = ref [] in
  while not (is st Token.RBRACE) do
    if is st Token.EOF then error st "unterminated block";
    stmts := parse_stmt st :: !stmts
  done;
  expect st Token.RBRACE;
  List.rev !stmts

(* Parses [T a = e, *b, c[4];] — a declaration group sharing a base type.
   Consumes the terminating ';'. *)
and parse_decl_group st : Ast.decl list =
  let storage = storage_of_prefix st in
  let base = parse_base_type st in
  let parse_one () =
    (* extra '*'s bind to the declarator *)
    let t = ref base in
    while accept st Token.STAR do
      t := Ctype.Ptr !t
    done;
    let name = expect_ident st in
    (* array suffixes *)
    let dims = ref [] in
    while accept st Token.LBRACKET do
      if accept st Token.RBRACKET then dims := None :: !dims
      else begin
        let d = const_eval st (parse_expr st) in
        expect st Token.RBRACKET;
        dims := Some d :: !dims
      end
    done;
    let t =
      List.fold_left (fun t d -> Ctype.Array (t, d)) !t !dims
      (* dims collected innermost-last; fold builds outermost-first which
         matches C's row-major nesting for our 1-D uses *)
    in
    let init =
      if accept st Token.ASSIGN then Some (parse_assign st) else None
    in
    { Ast.d_name = name; d_type = t; d_storage = storage; d_init = init }
  in
  let ds = ref [ parse_one () ] in
  while accept st Token.COMMA do
    ds := parse_one () :: !ds
  done;
  expect st Token.SEMI;
  List.rev !ds

and parse_decl_stmt st ~loc : Ast.stmt =
  match parse_decl_group st with
  | [ d ] -> Ast.mk_stmt ~loc (Ast.Decl d)
  | ds ->
      Ast.mk_stmt ~loc
        (Ast.Block (List.map (fun d -> Ast.mk_stmt ~loc (Ast.Decl d)) ds))

(* ------------------------------------------------------------------ *)
(* Functions and translation units                                      *)
(* ------------------------------------------------------------------ *)

let parse_params st : Ast.param list =
  expect st Token.LPAREN;
  if accept st Token.RPAREN then []
  else begin
    let parse_one () =
      let t = parse_base_type st in
      let t = ref t in
      while accept st Token.STAR do
        t := Ctype.Ptr !t
      done;
      let name = expect_ident st in
      (* array parameters decay to pointers *)
      while accept st Token.LBRACKET do
        (match peek st with
        | Token.RBRACKET -> ()
        | _ -> ignore (parse_expr st));
        expect st Token.RBRACKET;
        t := Ctype.Ptr !t
      done;
      { Ast.p_name = name; p_type = !t }
    in
    let ps = ref [ parse_one () ] in
    while accept st Token.COMMA do
      ps := parse_one () :: !ps
    done;
    expect st Token.RPAREN;
    List.rev !ps
  end

let parse_function st : Ast.fn =
  let kind = ref None in
  let launch_bounds = ref None in
  let rec qualifiers () =
    match peek st with
    | Token.KW "__global__" ->
        ignore (next st);
        kind := Some Ast.Global;
        qualifiers ()
    | Token.KW "__device__" ->
        ignore (next st);
        if !kind = None then kind := Some Ast.Device;
        qualifiers ()
    | Token.KW ("__host__" | "__forceinline__" | "static" | "inline"
               | "extern") ->
        ignore (next st);
        qualifiers ()
    | Token.KW "__launch_bounds__" ->
        ignore (next st);
        expect st Token.LPAREN;
        let n = const_eval st (parse_expr st) in
        (* optional second argument: min blocks per SM, ignored *)
        if accept st Token.COMMA then ignore (parse_expr st);
        expect st Token.RPAREN;
        launch_bounds := Some n;
        qualifiers ()
    | _ -> ()
  in
  qualifiers ();
  let kind =
    match !kind with
    | Some k -> k
    | None -> error st "expected __global__ or __device__ function"
  in
  let ret = parse_base_type st in
  (* __launch_bounds__ may also appear after the return type *)
  (match peek st with
  | Token.KW "__launch_bounds__" ->
      ignore (next st);
      expect st Token.LPAREN;
      let n = const_eval st (parse_expr st) in
      if accept st Token.COMMA then ignore (parse_expr st);
      expect st Token.RPAREN;
      launch_bounds := Some n
  | _ -> ());
  let name = expect_ident st in
  let params = parse_params st in
  let body = parse_block st in
  {
    Ast.f_name = name;
    f_kind = kind;
    f_params = params;
    f_ret = ret;
    f_body = body;
    f_launch_bounds = !launch_bounds;
  }

(** Parse a full translation unit from source text. *)
let parse_program (src : string) : Ast.program =
  let lexed = Lexer.lex src in
  let defines = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace defines k v) lexed.defines;
  let st = start lexed defines in
  let fns = ref [] in
  while not (is st Token.EOF) do
    fns := parse_function st :: !fns
  done;
  { Ast.defines = lexed.defines; functions = List.rev !fns }

(** Parse a source file containing exactly one [__global__] kernel
    (convenience entry point used by the CLI and tests). *)
let parse_kernel (src : string) : Ast.program * Ast.fn =
  let prog = parse_program src in
  match Ast.kernels prog with
  | [ k ] -> (prog, k)
  | [] -> failwith "parse_kernel: no __global__ kernel in input"
  | ks ->
      failwith
        (Fmt.str "parse_kernel: expected one kernel, found %d (%a)"
           (List.length ks)
           Fmt.(list ~sep:comma string)
           (List.map (fun (f : Ast.fn) -> f.f_name) ks))

(** Parse a single expression (testing convenience). *)
let parse_expr_string (src : string) : Ast.expr =
  let lexed = Lexer.lex src in
  let st = start lexed (Hashtbl.create 1) in
  let e = parse_expr st in
  expect st Token.EOF;
  e

(** Parse a statement list from a brace-enclosed block or bare statements
    (testing convenience). *)
let parse_stmts_string (src : string) : Ast.stmt list =
  let lexed = Lexer.lex src in
  let st = start lexed (Hashtbl.create 1) in
  let stmts = ref [] in
  while not (is st Token.EOF) do
    stmts := parse_stmt st :: !stmts
  done;
  List.rev !stmts
