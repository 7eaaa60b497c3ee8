(* Tokens of the CUDA-C subset. *)

type t =
  | INT_LIT of int64 * Ctype.t  (** value, literal type from suffix *)
  | FLOAT_LIT of float * Ctype.t
  | STRING_LIT of string  (** only inside [asm(...)] *)
  | IDENT of string
  | KW of string  (** reserved word, canonical spelling *)
  (* punctuation / operators *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | SEMI
  | COMMA
  | COLON
  | QUESTION
  | DOT
  | ARROW
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | AMP
  | PIPE
  | CARET
  | TILDE
  | BANG
  | LSHIFT
  | RSHIFT
  | LT
  | GT
  | LE
  | GE
  | EQEQ
  | NEQ
  | ANDAND
  | OROR
  | ASSIGN
  | PLUS_ASSIGN
  | MINUS_ASSIGN
  | STAR_ASSIGN
  | SLASH_ASSIGN
  | PERCENT_ASSIGN
  | AMP_ASSIGN
  | PIPE_ASSIGN
  | CARET_ASSIGN
  | LSHIFT_ASSIGN
  | RSHIFT_ASSIGN
  | PLUSPLUS
  | MINUSMINUS
  | EOF

(** Reserved words recognised by the lexer.  Type names are handled as
    keywords so the parser can distinguish declarations from expressions
    without a symbol table. *)
let is_keyword = function
  | "void" | "bool" | "char" | "short" | "int" | "long" | "float" | "double"
  | "signed" | "unsigned" | "const" | "volatile" | "restrict" | "__restrict__"
  | "uint8_t" | "uint16_t" | "uint32_t" | "uint64_t" | "int8_t" | "int16_t"
  | "int32_t" | "int64_t" | "size_t" | "uint"
  | "if" | "else" | "for" | "while" | "do" | "return" | "break" | "continue"
  | "goto" | "true" | "false" | "asm"
  | "__global__" | "__device__" | "__shared__" | "__host__" | "__forceinline__"
  | "__launch_bounds__" | "extern" | "static" | "inline" ->
      true
  | _ -> false

let pp ppf = function
  | INT_LIT (v, _) -> Fmt.pf ppf "int literal %Ld" v
  | FLOAT_LIT (v, _) -> Fmt.pf ppf "float literal %g" v
  | STRING_LIT s -> Fmt.pf ppf "string %S" s
  | IDENT s -> Fmt.pf ppf "identifier %s" s
  | KW s -> Fmt.pf ppf "keyword %s" s
  | LPAREN -> Fmt.string ppf "'('"
  | RPAREN -> Fmt.string ppf "')'"
  | LBRACE -> Fmt.string ppf "'{'"
  | RBRACE -> Fmt.string ppf "'}'"
  | LBRACKET -> Fmt.string ppf "'['"
  | RBRACKET -> Fmt.string ppf "']'"
  | SEMI -> Fmt.string ppf "';'"
  | COMMA -> Fmt.string ppf "','"
  | COLON -> Fmt.string ppf "':'"
  | QUESTION -> Fmt.string ppf "'?'"
  | DOT -> Fmt.string ppf "'.'"
  | ARROW -> Fmt.string ppf "'->'"
  | PLUS -> Fmt.string ppf "'+'"
  | MINUS -> Fmt.string ppf "'-'"
  | STAR -> Fmt.string ppf "'*'"
  | SLASH -> Fmt.string ppf "'/'"
  | PERCENT -> Fmt.string ppf "'%'"
  | AMP -> Fmt.string ppf "'&'"
  | PIPE -> Fmt.string ppf "'|'"
  | CARET -> Fmt.string ppf "'^'"
  | TILDE -> Fmt.string ppf "'~'"
  | BANG -> Fmt.string ppf "'!'"
  | LSHIFT -> Fmt.string ppf "'<<'"
  | RSHIFT -> Fmt.string ppf "'>>'"
  | LT -> Fmt.string ppf "'<'"
  | GT -> Fmt.string ppf "'>'"
  | LE -> Fmt.string ppf "'<='"
  | GE -> Fmt.string ppf "'>='"
  | EQEQ -> Fmt.string ppf "'=='"
  | NEQ -> Fmt.string ppf "'!='"
  | ANDAND -> Fmt.string ppf "'&&'"
  | OROR -> Fmt.string ppf "'||'"
  | ASSIGN -> Fmt.string ppf "'='"
  | PLUS_ASSIGN -> Fmt.string ppf "'+='"
  | MINUS_ASSIGN -> Fmt.string ppf "'-='"
  | STAR_ASSIGN -> Fmt.string ppf "'*='"
  | SLASH_ASSIGN -> Fmt.string ppf "'/='"
  | PERCENT_ASSIGN -> Fmt.string ppf "'%%='"
  | AMP_ASSIGN -> Fmt.string ppf "'&='"
  | PIPE_ASSIGN -> Fmt.string ppf "'|='"
  | CARET_ASSIGN -> Fmt.string ppf "'^='"
  | LSHIFT_ASSIGN -> Fmt.string ppf "'<<='"
  | RSHIFT_ASSIGN -> Fmt.string ppf "'>>='"
  | PLUSPLUS -> Fmt.string ppf "'++'"
  | MINUSMINUS -> Fmt.string ppf "'--'"
  | EOF -> Fmt.string ppf "end of input"

let to_string t = Fmt.str "%a" pp t

(* punctuation tokens are immediates: equal exactly when physically so *)
let equal (a : t) (b : t) =
  a == b
  ||
  match (a, b) with
  | INT_LIT (x, tx), INT_LIT (y, ty) -> Int64.equal x y && Ctype.equal tx ty
  | FLOAT_LIT (x, tx), FLOAT_LIT (y, ty) -> Float.equal x y && Ctype.equal tx ty
  | STRING_LIT x, STRING_LIT y | IDENT x, IDENT y | KW x, KW y ->
      String.equal x y
  | _ -> false
