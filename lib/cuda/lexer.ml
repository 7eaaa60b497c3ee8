(* Hand-written lexer for the CUDA-C subset.

   Handles line ("//") and block comments, integer literals (decimal and
   hex, with [u]/[l]/[ll]/[ull] suffixes), float literals (with optional
   [f] suffix and exponents), string literals (for [asm] bodies), all the
   multi-character operators of C, and simple preprocessor lines:
   [#define NAME <integer>] is recorded, any other [#...] line is skipped
   (the frontend expects includes/macros to have been expanded already,
   matching the paper's Section III-C preprocessing assumption).

   The scanner is a set of index loops over the source: [at] reads a byte
   without allocating and answers the sentinel ['\000'] past the end, so
   lookahead needs no bounds case (a real NUL byte is told apart by
   comparing the index with the length where that matters).  A token
   records only the offset of its first byte; its {!Loc.t} is built on
   demand from the offset and the table of line starts, so lexing
   allocates nothing for a punctuation token. *)

exception Error of string * Loc.t

(* Tokens are kept in chunks of [chunk] entries: a chunk fits the minor
   heap, so lexing allocates no large array (whose fresh pages cost more
   than the scan itself) and a short-lived token stream is never copied
   to the major heap. *)
let chunk_bits = 8
let chunk = 1 lsl chunk_bits

type lexed = {
  count : int;  (** the number of tokens, the last being [EOF] *)
  tokens : Token.t array array;  (** token [i] is [.(i / chunk).(i mod chunk)] *)
  offsets : int array array;  (** each token's first byte, chunked alike *)
  line_starts : int array;  (** the first byte of each line, ascending *)
  defines : (string * int64) list;  (** [#define]d integer constants *)
}

(** Token [i], [0 <= i < count]. *)
let token lexed i = lexed.tokens.(i lsr chunk_bits).(i land (chunk - 1))

let offset lexed i = lexed.offsets.(i lsr chunk_bits).(i land (chunk - 1))

(* 0 and the byte after every newline *)
let line_starts src =
  let rec go acc i =
    match String.index_from_opt src i '\n' with
    | Some j -> go ((j + 1) :: acc) (j + 1)
    | None -> Array.of_list (List.rev acc)
  in
  go [ 0 ] 0

(* A location is a function of the offset alone: its line counts the
   newlines before it, its column the bytes since the last one. *)
let loc_of_offset line_starts offset =
  let lo = ref 0 and hi = ref (Array.length line_starts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if line_starts.(mid) <= offset then lo := mid else hi := mid - 1
  done;
  Loc.make ~line:(!lo + 1) ~col:(offset - line_starts.(!lo) + 1) ~offset

(** The location of token [i]. *)
let loc_at lexed i = loc_of_offset lexed.line_starts (offset lexed i)

type state = {
  src : string;
  len : int;
  mutable pos : int;
  spellings : string array;
  spelled : Token.t array;
      (** recent names and numbers by a hash of their spelling: a token
          whose spelling was seen before is answered without allocating *)
}

let cache_size = 256

let[@inline] at st i = if i < st.len then String.unsafe_get st.src i else '\000'

let error st msg =
  raise (Error (msg, loc_of_offset (line_starts st.src) st.pos))

let[@inline] is_digit c = c >= '0' && c <= '9'

let[@inline] is_hex c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let[@inline] is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let[@inline] is_ident_char c = is_ident_start c || is_digit c

(* the first index at or after [i] whose byte fails [p] *)
let[@inline] scan_while st p i =
  let i = ref i in
  while !i < st.len && p (String.unsafe_get st.src !i) do
    incr i
  done;
  !i

let rec skip_ws_and_comments st =
  let i = ref st.pos in
  while
    !i < st.len
    &&
    match String.unsafe_get st.src !i with
    | ' ' | '\t' | '\r' | '\n' -> true
    | _ -> false
  do
    incr i
  done;
  st.pos <- !i;
  if at st !i = '/' then
    match at st (!i + 1) with
    | '/' ->
        st.pos <- scan_while st (fun c -> c <> '\n') !i;
        skip_ws_and_comments st
    | '*' ->
        st.pos <- !i + 2;
        while
          st.pos < st.len
          && not (at st st.pos = '*' && at st (st.pos + 1) = '/')
        do
          st.pos <- st.pos + 1
        done;
        if st.pos >= st.len then error st "unterminated block comment";
        st.pos <- st.pos + 2;
        skip_ws_and_comments st
    | _ -> ()

(* Reads the rest of the current logical line (handling backslash
   continuations) and returns it. *)
let read_line st =
  let buf = Buffer.create 64 in
  let rec go () =
    if st.pos < st.len then
      match String.unsafe_get st.src st.pos with
      | '\\' when at st (st.pos + 1) = '\n' ->
          st.pos <- st.pos + 2;
          Buffer.add_char buf ' ';
          go ()
      | '\n' -> st.pos <- st.pos + 1
      | c ->
          Buffer.add_char buf c;
          st.pos <- st.pos + 1;
          go ()
  in
  go ();
  Buffer.contents buf

(* [#define NAME 123] (or hex).  Anything fancier is ignored: the paper's
   pipeline assumes macros are pre-expanded (Section III-C); we accept the
   integer-constant case because the benchmark kernels use it (WARP_SIZE). *)
let parse_define line =
  let line = String.trim line in
  match String.index_opt line ' ' with
  | None -> None
  | Some i ->
      let name = String.sub line 0 i in
      let rest = String.trim (String.sub line i (String.length line - i)) in
      if name = "" || not (is_ident_start name.[0]) then None
      else if rest = "" then None
      else
        (* Allow a parenthesised constant expression of a single literal. *)
        let rest =
          if
            String.length rest >= 2
            && rest.[0] = '('
            && rest.[String.length rest - 1] = ')'
          then String.trim (String.sub rest 1 (String.length rest - 2))
          else rest
        in
        (try Some (name, Int64.of_string rest) with _ -> None)

let directive st =
  let line = read_line st in
  let define_from k =
    parse_define (String.sub line k (String.length line - k))
  in
  if String.starts_with ~prefix:"define " line then define_from 7
  else if String.starts_with ~prefix:"define" line then define_from 6
  else None

(* The cache slot of the spelling from [start] to the current position,
   and whether it holds that spelling's token.  Only tokens whose value
   is a function of their spelling (names, numbers) are cached. *)
let slot st start =
  let h = ref (st.pos - start) in
  for i = start to st.pos - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get st.src i)
  done;
  !h land (cache_size - 1)

let rec same_bytes a b off i n =
  i = n
  || String.unsafe_get a i = String.unsafe_get b (off + i)
     && same_bytes a b off (i + 1) n

let hit st start slot =
  let seen = st.spellings.(slot) and n = st.pos - start in
  String.length seen = n && same_bytes seen st.src start 0 n

let remember st slot spelling tok =
  st.spellings.(slot) <- spelling;
  st.spelled.(slot) <- tok;
  tok

let lex_number st =
  let start = st.pos in
  let hex =
    at st start = '0' && (at st (start + 1) = 'x' || at st (start + 1) = 'X')
  in
  let is_float = ref false in
  if hex then st.pos <- scan_while st is_hex (start + 2)
  else begin
    st.pos <- scan_while st is_digit start;
    (if at st st.pos = '.' then
       let next = at st (st.pos + 1) in
       if is_digit next || next = 'f' || next = 'F' then begin
         is_float := true;
         st.pos <- scan_while st is_digit (st.pos + 1)
       end
       else if
         st.pos + 1 >= st.len
         ||
         match next with
         | ' ' | ';' | ',' | ')' | ']' | '*' | '/' | '+' | '-' -> true
         | _ -> false
       then begin
         (* "1." style literal *)
         is_float := true;
         st.pos <- st.pos + 1
       end);
    match at st st.pos with
    | ('e' | 'E')
      when let c = at st (st.pos + 1) in
           is_digit c || c = '+' || c = '-' ->
        is_float := true;
        st.pos <- st.pos + 1;
        (match at st st.pos with
        | '+' | '-' -> st.pos <- st.pos + 1
        | _ -> ());
        st.pos <- scan_while st is_digit st.pos
    | _ -> ()
  end;
  let digits_end = st.pos in
  (* suffixes: [f] on a float; u, l, ul, ll, ull in any case on an integer *)
  let unsigned = ref false and long = ref false in
  if !is_float then (
    match at st st.pos with
    | 'f' | 'F' -> st.pos <- st.pos + 1
    | _ -> ())
  else begin
    let rec suffixes () =
      match at st st.pos with
      | 'u' | 'U' ->
          unsigned := true;
          st.pos <- st.pos + 1;
          suffixes ()
      | 'l' | 'L' ->
          long := true;
          st.pos <- st.pos + 1;
          suffixes ()
      | _ -> ()
    in
    suffixes ()
  end;
  let slot = slot st start in
  if hit st start slot then st.spelled.(slot)
  else
    let digits = String.sub st.src start (digits_end - start) in
    let tok =
      if !is_float then
        let ty = if st.pos > digits_end then Ctype.Float else Ctype.Double in
        match float_of_string_opt digits with
        | Some v -> Token.FLOAT_LIT (v, ty)
        | None -> error st ("malformed float literal " ^ digits)
      else
        let ty : Ctype.t =
          match (!unsigned, !long) with
          | false, false -> Int
          | true, false -> UInt
          | false, true -> Long
          | true, true -> ULong
        in
        (* decimal literals above 2^63-1 are valid unsigned 64-bit
           values; OCaml's plain Int64.of_string rejects them, the 0u
           prefix accepts the full unsigned range *)
        match Int64.of_string_opt digits with
        | Some v -> Token.INT_LIT (v, ty)
        | None -> (
            match Int64.of_string_opt ("0u" ^ digits) with
            | Some v -> Token.INT_LIT (v, ty)
            | None -> error st ("malformed integer literal " ^ digits))
    in
    remember st slot (String.sub st.src start (st.pos - start)) tok

let lex_string st =
  st.pos <- st.pos + 1;
  (* opening quote *)
  let buf = Buffer.create 32 in
  let rec go () =
    if st.pos >= st.len then error st "unterminated string literal";
    match String.unsafe_get st.src st.pos with
    | '"' -> st.pos <- st.pos + 1
    | '\\' ->
        st.pos <- st.pos + 1;
        if st.pos >= st.len then error st "unterminated escape";
        (match String.unsafe_get st.src st.pos with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | c -> Buffer.add_char buf c);
        st.pos <- st.pos + 1;
        go ()
    | c ->
        Buffer.add_char buf c;
        st.pos <- st.pos + 1;
        go ()
  in
  go ();
  Token.STRING_LIT (Buffer.contents buf)

let lex_ident st =
  let start = st.pos in
  st.pos <- scan_while st is_ident_char start;
  let slot = slot st start in
  if hit st start slot then st.spelled.(slot)
  else
    let s = String.sub st.src start (st.pos - start) in
    remember st slot s (if Token.is_keyword s then Token.KW s else Token.IDENT s)

let lex_operator st =
  let c = String.unsafe_get st.src st.pos and c1 = at st (st.pos + 1) in
  let width, tok =
    match c with
    | '<' when c1 = '<' ->
        if at st (st.pos + 2) = '=' then (3, Token.LSHIFT_ASSIGN)
        else (2, Token.LSHIFT)
    | '>' when c1 = '>' ->
        if at st (st.pos + 2) = '=' then (3, Token.RSHIFT_ASSIGN)
        else (2, Token.RSHIFT)
    | '<' when c1 = '=' -> (2, Token.LE)
    | '>' when c1 = '=' -> (2, Token.GE)
    | '=' when c1 = '=' -> (2, Token.EQEQ)
    | '!' when c1 = '=' -> (2, Token.NEQ)
    | '&' when c1 = '&' -> (2, Token.ANDAND)
    | '|' when c1 = '|' -> (2, Token.OROR)
    | '+' when c1 = '+' -> (2, Token.PLUSPLUS)
    | '-' when c1 = '-' -> (2, Token.MINUSMINUS)
    | '-' when c1 = '>' -> (2, Token.ARROW)
    | '+' when c1 = '=' -> (2, Token.PLUS_ASSIGN)
    | '-' when c1 = '=' -> (2, Token.MINUS_ASSIGN)
    | '*' when c1 = '=' -> (2, Token.STAR_ASSIGN)
    | '/' when c1 = '=' -> (2, Token.SLASH_ASSIGN)
    | '%' when c1 = '=' -> (2, Token.PERCENT_ASSIGN)
    | '&' when c1 = '=' -> (2, Token.AMP_ASSIGN)
    | '|' when c1 = '=' -> (2, Token.PIPE_ASSIGN)
    | '^' when c1 = '=' -> (2, Token.CARET_ASSIGN)
    | '(' -> (1, Token.LPAREN)
    | ')' -> (1, Token.RPAREN)
    | '{' -> (1, Token.LBRACE)
    | '}' -> (1, Token.RBRACE)
    | '[' -> (1, Token.LBRACKET)
    | ']' -> (1, Token.RBRACKET)
    | ';' -> (1, Token.SEMI)
    | ',' -> (1, Token.COMMA)
    | ':' -> (1, Token.COLON)
    | '?' -> (1, Token.QUESTION)
    | '.' -> (1, Token.DOT)
    | '+' -> (1, Token.PLUS)
    | '-' -> (1, Token.MINUS)
    | '*' -> (1, Token.STAR)
    | '/' -> (1, Token.SLASH)
    | '%' -> (1, Token.PERCENT)
    | '&' -> (1, Token.AMP)
    | '|' -> (1, Token.PIPE)
    | '^' -> (1, Token.CARET)
    | '~' -> (1, Token.TILDE)
    | '!' -> (1, Token.BANG)
    | '<' -> (1, Token.LT)
    | '>' -> (1, Token.GT)
    | '=' -> (1, Token.ASSIGN)
    | c -> error st (Printf.sprintf "unexpected character %C" c)
  in
  st.pos <- st.pos + width;
  tok

(** Tokenise [src].  Raises {!Error} on malformed input. *)
let lex src : lexed =
  let st =
    {
      src;
      len = String.length src;
      pos = 0;
      spellings = Array.make cache_size "";
      spelled = Array.make cache_size Token.EOF;
    }
  in
  let full = ref [] (* filled chunks, newest first *) in
  let tokens = ref (Array.make chunk Token.EOF) in
  let offsets = ref (Array.make chunk 0) in
  let count = ref 0 in
  let push tok offset =
    let k = !count land (chunk - 1) in
    if k = 0 && !count > 0 then begin
      full := (!tokens, !offsets) :: !full;
      tokens := Array.make chunk Token.EOF;
      offsets := Array.make chunk 0
    end;
    Array.unsafe_set !tokens k tok;
    Array.unsafe_set !offsets k offset;
    incr count
  in
  let defines = ref [] in
  let rec go () =
    skip_ws_and_comments st;
    let offset = st.pos in
    if offset >= st.len then push Token.EOF offset
    else begin
      (match String.unsafe_get st.src offset with
      | '#' ->
          st.pos <- st.pos + 1;
          skip_ws_and_comments st;
          Option.iter (fun kv -> defines := kv :: !defines) (directive st)
      | c ->
          let tok =
            match c with
            | '0' .. '9' -> lex_number st
            | '.' when is_digit (at st (offset + 1)) -> lex_number st
            | '"' -> lex_string st
            | 'a' .. 'z' | 'A' .. 'Z' | '_' -> lex_ident st
            | _ -> lex_operator st
          in
          push tok offset);
      go ()
    end
  in
  go ();
  let chunks = Array.of_list (List.rev ((!tokens, !offsets) :: !full)) in
  {
    count = !count;
    tokens = Array.map fst chunks;
    offsets = Array.map snd chunks;
    line_starts = line_starts src;
    defines = List.rev !defines;
  }
