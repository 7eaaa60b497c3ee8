(* Lexer unit tests. *)

open Cuda

(* the whole stream, [EOF] last *)
let token_list (lexed : Lexer.lexed) = List.init lexed.count (Lexer.token lexed)

let tokens src =
  token_list (Lexer.lex src)
  |> List.filter (fun t -> t <> Token.EOF)

let token = Alcotest.testable Token.pp Token.equal

let check_tokens name src expected =
  Alcotest.(check (list token)) name expected (tokens src)

let test_idents_keywords () =
  check_tokens "identifiers vs keywords" "foo int threadIdx if elsewhere"
    [
      Token.IDENT "foo"; Token.KW "int"; Token.IDENT "threadIdx";
      Token.KW "if"; Token.IDENT "elsewhere";
    ]

let test_int_literals () =
  check_tokens "decimal" "42" [ Token.INT_LIT (42L, Ctype.Int) ];
  check_tokens "unsigned" "42u" [ Token.INT_LIT (42L, Ctype.UInt) ];
  check_tokens "ull" "42ull" [ Token.INT_LIT (42L, Ctype.ULong) ];
  check_tokens "ll" "42ll" [ Token.INT_LIT (42L, Ctype.Long) ];
  check_tokens "hex" "0xff" [ Token.INT_LIT (255L, Ctype.Int) ];
  check_tokens "hex unsigned" "0xFFu" [ Token.INT_LIT (255L, Ctype.UInt) ]

let test_u64_overflow_literal () =
  (* decimal above 2^63-1 must parse as its unsigned bit pattern *)
  check_tokens "big u64" "14695981039346656037ull"
    [ Token.INT_LIT (0xCBF29CE484222325L, Ctype.ULong) ]

let test_float_literals () =
  check_tokens "double" "1.5" [ Token.FLOAT_LIT (1.5, Ctype.Double) ];
  check_tokens "float suffix" "1.5f" [ Token.FLOAT_LIT (1.5, Ctype.Float) ];
  check_tokens "exponent" "2e3" [ Token.FLOAT_LIT (2000.0, Ctype.Double) ];
  check_tokens "exp+suffix" "2.5e-1f" [ Token.FLOAT_LIT (0.25, Ctype.Float) ];
  check_tokens "trailing dot" "3. " [ Token.FLOAT_LIT (3.0, Ctype.Double) ]

let test_operators () =
  check_tokens "shifts vs relations" "a << b >> c < d <= e"
    [
      Token.IDENT "a"; Token.LSHIFT; Token.IDENT "b"; Token.RSHIFT;
      Token.IDENT "c"; Token.LT; Token.IDENT "d"; Token.LE; Token.IDENT "e";
    ];
  check_tokens "compound assigns" "x += 1; y <<= 2;"
    [
      Token.IDENT "x"; Token.PLUS_ASSIGN; Token.INT_LIT (1L, Ctype.Int);
      Token.SEMI; Token.IDENT "y"; Token.LSHIFT_ASSIGN;
      Token.INT_LIT (2L, Ctype.Int); Token.SEMI;
    ];
  check_tokens "incdec and arrow" "p++ -- ->"
    [ Token.IDENT "p"; Token.PLUSPLUS; Token.MINUSMINUS; Token.ARROW ]

let test_comments () =
  check_tokens "line comment" "a // comment here\n b"
    [ Token.IDENT "a"; Token.IDENT "b" ];
  check_tokens "block comment" "a /* x \n y */ b"
    [ Token.IDENT "a"; Token.IDENT "b" ]

let test_unterminated_comment () =
  match Lexer.lex "a /* oops" with
  | exception Lexer.Error (msg, _) ->
      Alcotest.(check string) "message" "unterminated block comment" msg
  | _ -> Alcotest.fail "expected a lexer error"

let test_string_literal () =
  check_tokens "asm string" {|asm("bar.sync 1, 896;")|}
    [
      Token.KW "asm"; Token.LPAREN; Token.STRING_LIT "bar.sync 1, 896;";
      Token.RPAREN;
    ]

let test_defines () =
  let lexed = Lexer.lex "#define WARP_SIZE 32\n#define HEX 0x10\nint x;" in
  Alcotest.(check (list (pair string int64)))
    "defines" [ ("WARP_SIZE", 32L); ("HEX", 16L) ] lexed.defines

let test_define_ignores_nonconstant () =
  let lexed = Lexer.lex "#define F(x) ((x)+1)\n#include <cuda.h>\nint x;" in
  Alcotest.(check int) "no defines" 0 (List.length lexed.defines)

let test_positions () =
  let lexed = Lexer.lex "ab\n  cd" in
  let loc = Lexer.loc_at lexed 1 in
  Alcotest.(check int) "line" 2 loc.Loc.line;
  Alcotest.(check int) "col" 3 loc.Loc.col

let test_bad_char () =
  match Lexer.lex "@" with
  | exception Lexer.Error (msg, loc) ->
      Alcotest.(check string) "message" "unexpected character '@'" msg;
      Alcotest.(check int) "offset" 0 loc.Loc.offset
  | _ -> Alcotest.fail "expected a lexer error"

(* -- Golden tokens --------------------------------------------------------- *)

(* [golden/tokens.md5] pins the lexer's exact output: every token's kind,
   payload, line, column and offset, the [#define]d constants, and the
   message and location of every lexer or parser error below.  One md5 per
   line: a corpus kernel, a batch of 25 seeded fuzzer programs, a set of
   hand-written edge cases, and one malformed input each. *)

let token_line (tok : Token.t) (l : Loc.t) =
  let kind =
    match tok with
    | INT_LIT (v, ty) -> Printf.sprintf "INT %Ld %s" v (Ctype.to_string ty)
    | FLOAT_LIT (v, ty) -> Printf.sprintf "FLOAT %h %s" v (Ctype.to_string ty)
    | STRING_LIT s -> Printf.sprintf "STRING %S" s
    | IDENT s -> "IDENT " ^ s
    | KW s -> "KW " ^ s
    | t -> Token.to_string t
  in
  Printf.sprintf "%s @%d:%d+%d" kind l.line l.col l.offset

let lexed_dump src =
  let lexed = Lexer.lex src in
  String.concat "\n"
    (List.mapi
       (fun i tok -> token_line tok (Lexer.loc_at lexed i))
       (token_list lexed)
    @ List.map (fun (n, v) -> Printf.sprintf "define %s %Ld" n v) lexed.defines)

let digest_of (parts : string list) =
  Digest.to_hex (Digest.string (String.concat "\n\x00" parts))

(* lexes the quirks of the number, define and comment scanners *)
let edge_sources =
  [
    "1. 1.f 1.5F .5 .5f 1e5 1e5f 1E+5 2.5e-3f 3.e 1.x 1.5e 0x1.5 0xFFull";
    "0XaBcDu 42Lu 42uL 7ULL 18446744073709551615u 08 0 00 0x0";
    "a\r\nb\tc\n\n  d /* x\ny */ e // tail\nf";
    "#define A 1\n#define B (0x20)\n#define  C   ( 7 )\n#define D\n#define E x\n";
    "#define LONG_ONE \\\n  12\nint x;";
    "# define SPACED 3\n#include <x.h>\n#pragma unroll\nint y;";
    "#define LAST 9";
    {|asm("bar.sync 1, 64;\n\t\"q\"\\") "" "a\qb"|};
    "a<<=b>>=c<<d>>e<=f>=g==h!=i&&j||k++l--m->n+=o-=p*=q/=r%=s&=t|=u^=v";
    "( ) { } [ ] ; , : ? . + - * / % & | ^ ~ ! < > =";
    "x/y /**/z/***/w/* ** */v";
    "";
    "   \n\t ";
  ]

(* lexer and parser errors, each with its message and location *)
let malformed_sources =
  [
    ("unterminated comment", "int a; /* never closed\n more");
    ("unterminated comment at end", "a /*");
    ("unterminated string", "asm(\"bar.sync");
    ("unterminated escape", "asm(\"bar\\");
    ("bare hex", "int x = 0x;");
    ("hex then ident", "int x = 0xg;");
    ("too large integer", "unsigned long x = 99999999999999999999999;");
    ("bad exponent", "float f = 1e+;");
    ("bad exponent sign", "float f = 1.5e-;");
    ("stray at", "int x = 1 @ 2;");
    ("stray dollar", "\n\n  $");
    ("stray backslash", "a \\ b");
    ("stray backquote", "int `x`;");
    ("stray hash in line", "int x # y;");
    ("missing semicolon", "__global__ void k(int *a) { a[0] = 1 }");
    ("missing operand", "__global__ void k(int *a) { a[0] = ; }");
    ("unclosed block", "__global__ void k(int *a) { a[0] = 1;");
    ("unclosed paren", "__global__ void k(int *a { }");
    ("no kernel", "__device__ int f(int x) { return x; }");
  ]

let error_line src =
  match Parser.parse_kernel src with
  | _ -> "ok"
  | exception Lexer.Error (msg, l) ->
      Printf.sprintf "lexer %S @%d:%d+%d" msg l.line l.col l.offset
  | exception Parser.Error (msg, l) ->
      Printf.sprintf "parser %S @%d:%d+%d" msg l.line l.col l.offset
  | exception Failure msg -> Printf.sprintf "failure %S" msg

let golden_token_lines () : string list =
  let corpus =
    List.map
      (fun (s : Kernel_corpus.Spec.t) ->
        Printf.sprintf "corpus %s %s" s.name (digest_of [ lexed_dump s.source ]))
      (Hfuse_fleet.Corpus.all_specs ())
  in
  let fuzz =
    List.init 4 (fun b ->
        let seeds = List.init 25 (fun i -> (b * 25) + i) in
        Printf.sprintf "fuzz %d-%d %s" (b * 25) ((b * 25) + 24)
          (digest_of
             (List.concat_map
                (fun seed ->
                  (Hfuse_fuzz.Gen.generate_case ~seed ()).c_kernels
                  |> List.map (fun k -> lexed_dump (Hfuse_fuzz.Gen.kernel_source k)))
                seeds)))
  in
  let edges =
    List.mapi
      (fun i src -> Printf.sprintf "edge %d %s" i (digest_of [ lexed_dump src ]))
      edge_sources
  in
  let errors =
    List.map
      (fun (name, src) ->
        Printf.sprintf "error %s %s" (String.map (function ' ' -> '-' | c -> c) name)
          (digest_of [ error_line src ]))
      malformed_sources
  in
  corpus @ fuzz @ edges @ errors

let test_golden_tokens () =
  let expected =
    In_channel.with_open_bin (Filename.concat "golden" "tokens.md5")
      In_channel.input_lines
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check (list string)) "token streams" expected (golden_token_lines ())

let suite =
  [
    Alcotest.test_case "idents and keywords" `Quick test_idents_keywords;
    Alcotest.test_case "int literals" `Quick test_int_literals;
    Alcotest.test_case "u64 overflow literal" `Quick test_u64_overflow_literal;
    Alcotest.test_case "float literals" `Quick test_float_literals;
    Alcotest.test_case "operators" `Quick test_operators;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "unterminated comment" `Quick test_unterminated_comment;
    Alcotest.test_case "string literal" `Quick test_string_literal;
    Alcotest.test_case "defines" `Quick test_defines;
    Alcotest.test_case "non-constant defines ignored" `Quick
      test_define_ignores_nonconstant;
    Alcotest.test_case "positions" `Quick test_positions;
    Alcotest.test_case "bad character" `Quick test_bad_char;
    Alcotest.test_case "golden token streams" `Quick test_golden_tokens;
  ]
