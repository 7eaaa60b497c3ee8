(* Runtime-value semantics: exact 32/64-bit wrapping, signedness,
   fp32 rounding, conversions and pointer arithmetic — checked against
   OCaml's Int32/Int64 reference operations. *)

open Cuda
open Gpusim

let i32 x = Value.Int x
let u32 x = Value.UInt x
let u64 x = Value.ULong x

let test_wrapping () =
  Alcotest.(check bool) "i32 add wraps" true
    (Value.binop Ast.Add (i32 Int32.max_int) (i32 1l) = i32 Int32.min_int);
  Alcotest.(check bool) "u32 mul wraps" true
    (Value.binop Ast.Mul (u32 0x9e3779b1l) (u32 0x9e3779b1l)
    = u32 (Int32.mul 0x9e3779b1l 0x9e3779b1l));
  Alcotest.(check bool) "u64 add wraps" true
    (Value.binop Ast.Add (u64 Int64.minus_one) (u64 2L) = u64 1L)

let test_signedness () =
  (* -1 as unsigned is the maximum *)
  Alcotest.(check bool) "u32 compare" true
    (Value.binop Ast.Lt (u32 1l) (u32 (-1l)) = Value.Bool true);
  Alcotest.(check bool) "i32 compare" true
    (Value.binop Ast.Lt (i32 (-1l)) (i32 1l) = Value.Bool true);
  Alcotest.(check bool) "u32 shift logical" true
    (Value.binop Ast.Shr (u32 (-2l)) (i32 1l) = u32 0x7FFFFFFFl);
  Alcotest.(check bool) "i32 shift arithmetic" true
    (Value.binop Ast.Shr (i32 (-2l)) (i32 1l) = i32 (-1l));
  Alcotest.(check bool) "u32 div" true
    (Value.binop Ast.Div (u32 (-1l)) (u32 2l) = u32 0x7FFFFFFFl);
  (* mixed signed/unsigned promotes to unsigned, as in C *)
  Alcotest.(check bool) "mixed promotes unsigned" true
    (Value.binop Ast.Lt (i32 (-1l)) (u32 1l) = Value.Bool false)

let test_f32_rounding () =
  (* 1 + 2^-30 is not representable in binary32 *)
  let v = Value.binop Ast.Add (Value.Float 1.0) (Value.Float (Float.pow 2.0 (-30.))) in
  Alcotest.(check bool) "f32 rounds" true (v = Value.Float 1.0);
  let d =
    Value.binop Ast.Add (Value.Double 1.0) (Value.Double (Float.pow 2.0 (-30.)))
  in
  Alcotest.(check bool) "f64 keeps precision" true
    (d <> Value.Double 1.0)

let test_conversions () =
  Alcotest.(check bool) "float->int truncates" true
    (Value.convert Ctype.Int (Value.Float 3.9) = i32 3l);
  Alcotest.(check bool) "negative trunc toward zero" true
    (Value.convert Ctype.Int (Value.Float (-3.9)) = i32 (-3l));
  Alcotest.(check bool) "uchar wraps" true
    (Value.convert Ctype.UChar (i32 260l) = u32 4l);
  Alcotest.(check bool) "char sign-extends" true
    (Value.convert Ctype.Char (i32 255l) = i32 (-1l));
  Alcotest.(check bool) "int->u64 sign-extends (C semantics)" true
    (Value.convert Ctype.ULong (i32 (-1l)) = u64 Int64.minus_one);
  Alcotest.(check bool) "u32->u64 zero-extends" true
    (Value.convert Ctype.ULong (u32 (-1l)) = u64 0xFFFFFFFFL);
  Alcotest.(check bool) "bool truthiness" true
    (Value.convert Ctype.Bool (i32 7l) = Value.Bool true)

let test_pointer_arith () =
  let p =
    { Value.space = Value.Global; buf = 0; off = 16; elem = Ctype.Float }
  in
  (match Value.binop Ast.Add (Value.Ptr p) (i32 3l) with
  | Value.Ptr q -> Alcotest.(check int) "offset scaled" 28 q.Value.off
  | _ -> Alcotest.fail "expected pointer");
  (match Value.binop Ast.Sub (Value.Ptr p) (i32 2l) with
  | Value.Ptr q -> Alcotest.(check int) "sub scaled" 8 q.Value.off
  | _ -> Alcotest.fail "expected pointer");
  let q = { p with Value.off = 32 } in
  Alcotest.(check bool) "pointer difference" true
    (Value.binop Ast.Sub (Value.Ptr q) (Value.Ptr p) = i32 4l);
  Alcotest.(check bool) "pointer compare" true
    (Value.binop Ast.Lt (Value.Ptr p) (Value.Ptr q) = Value.Bool true);
  (* reinterpret changes the stride *)
  match Value.convert (Ctype.Ptr Ctype.UChar) (Value.Ptr p) with
  | Value.Ptr r ->
      (match Value.binop Ast.Add (Value.Ptr r) (i32 3l) with
      | Value.Ptr r' -> Alcotest.(check int) "byte stride" 19 r'.Value.off
      | _ -> Alcotest.fail "expected pointer")
  | _ -> Alcotest.fail "expected pointer"

let test_division_by_zero () =
  (match Value.binop Ast.Div (i32 1l) (i32 0l) with
  | exception Value.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected div-by-zero error");
  match Value.binop Ast.Mod (u64 1L) (u64 0L) with
  | exception Value.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected mod-by-zero error"

(* -- reference properties ---------------------------------------------- *)

let arb_i32 = QCheck.map Int64.to_int32 (QCheck.int64)

let binop_matches_int32 =
  QCheck.Test.make ~name:"i32 binops match Int32 reference" ~count:500
    QCheck.(pair arb_i32 arb_i32)
    (fun (a, b) ->
      Value.binop Ast.Add (i32 a) (i32 b) = i32 (Int32.add a b)
      && Value.binop Ast.Sub (i32 a) (i32 b) = i32 (Int32.sub a b)
      && Value.binop Ast.Mul (i32 a) (i32 b) = i32 (Int32.mul a b)
      && Value.binop Ast.Band (i32 a) (i32 b) = i32 (Int32.logand a b)
      && Value.binop Ast.Bor (i32 a) (i32 b) = i32 (Int32.logor a b)
      && Value.binop Ast.Bxor (i32 a) (i32 b) = i32 (Int32.logxor a b))

let binop_matches_int64 =
  QCheck.Test.make ~name:"u64 binops match Int64 reference" ~count:500
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      Value.binop Ast.Add (u64 a) (u64 b) = u64 (Int64.add a b)
      && Value.binop Ast.Mul (u64 a) (u64 b) = u64 (Int64.mul a b)
      && Value.binop Ast.Bxor (u64 a) (u64 b) = u64 (Int64.logxor a b)
      && Value.binop Ast.Lt (u64 a) (u64 b)
         = Value.Bool (Int64.unsigned_compare a b < 0))

let shifts_match =
  QCheck.Test.make ~name:"shifts mask the count as hardware does" ~count:500
    QCheck.(pair arb_i32 (int_range 0 100))
    (fun (a, n) ->
      Value.binop Ast.Shl (u32 a) (i32 (Int32.of_int n))
      = u32 (Int32.shift_left a (n land 31)))

let f32_idempotent =
  QCheck.Test.make ~name:"f32 rounding is idempotent" ~count:500 QCheck.float
    (fun x -> Value.f32 (Value.f32 x) = Value.f32 x)

let conversion_roundtrip =
  QCheck.Test.make ~name:"int conversion to wider type preserves value"
    ~count:300 arb_i32 (fun a ->
      Value.to_i64 (Value.convert Ctype.Long (i32 a)) = Int64.of_int32 a)

(* Golden value semantics: every binary operator over every ordered
   pair of a fixed edge set holding each constructor, every unary
   operator, conversion to every arithmetic type, and [to_int].  Each
   result prints as [Value.pp] with floats as [%h] (so their bits are
   pinned), or as the exception raised.  golden/value.md5 holds one md5
   per (operation, left operand) over the lines for all right operands,
   so a mismatch names the operation and the value it broke on. *)

let edge_values =
  (* as [UInt], -1l is 0xFFFFFFFFu *)
  let ints = [ 0l; 1l; -1l; Int32.max_int; Int32.min_int ] in
  let longs =
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0xFFFFFFFFL;
      Int64.of_int32 Int32.min_int ]
  in
  let floats =
    [ 0.0; -0.0; 1.0; -1.0; Float.nan; Float.infinity; Float.neg_infinity ]
  in
  List.map (fun x -> Value.Int x) ints
  @ List.map (fun x -> Value.UInt x) ints
  @ List.map (fun x -> Value.Long x) longs
  @ List.map (fun x -> Value.ULong x) longs
  @ List.map (fun x -> Value.Float (Value.f32 x)) (1e-40 :: floats)
  @ List.map (fun x -> Value.Double x) (5e-324 :: floats)
  @ [ Value.Bool true; Value.Bool false;
      Value.Ptr { Value.space = Value.Global; buf = 1; off = 8; elem = Ctype.Int };
      Value.Ptr
        { Value.space = Value.Shared; buf = 0; off = 4; elem = Ctype.Float } ]

let show_value = function
  | Value.Float x -> Printf.sprintf "%hf" x
  | Value.Double x -> Printf.sprintf "%h" x
  | v -> Fmt.str "%a" Value.pp v

let show_result f =
  match f () with
  | v -> show_value v
  | exception Value.Runtime_error m -> "Runtime_error: " ^ m
  | exception e -> Printexc.to_string e

let binops =
  Ast.
    [ ("Add", Add); ("Sub", Sub); ("Mul", Mul); ("Div", Div); ("Mod", Mod);
      ("Band", Band); ("Bor", Bor); ("Bxor", Bxor); ("Shl", Shl);
      ("Shr", Shr); ("Eq", Eq); ("Ne", Ne); ("Lt", Lt); ("Le", Le);
      ("Gt", Gt); ("Ge", Ge); ("Land", Land); ("Lor", Lor) ]

let unops = Ast.[ ("Neg", Neg); ("Bnot", Bnot); ("Lnot", Lnot) ]

let arith_types =
  Ctype.[ Bool; Char; UChar; Short; UShort; Int; UInt; Long; ULong; Float;
          Double ]

let golden_value_lines () =
  let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines)) in
  let per_left =
    List.concat_map
      (fun (name, op) ->
        List.map
          (fun a ->
            Printf.sprintf "binop %s %s %s" name (show_value a)
              (digest
                 (List.map
                    (fun b -> show_result (fun () -> Value.binop op a b))
                    edge_values)))
          edge_values)
      binops
  in
  let over_edges name f =
    Printf.sprintf "%s %s" name
      (digest
         (List.map
            (fun v -> show_value v ^ " " ^ show_result (fun () -> f v))
            edge_values))
  in
  per_left
  @ List.map (fun (name, op) -> over_edges ("unop " ^ name) (Value.unop op))
      unops
  @ List.map
      (fun ty ->
        over_edges
          ("convert " ^ String.map (function ' ' -> '_' | c -> c)
             (Ctype.to_string ty))
          (Value.convert ty))
      arith_types
  @ [ over_edges "to_int" (fun v -> Value.Long (Int64.of_int (Value.to_int v))) ]

let test_golden_values () =
  let golden =
    In_channel.with_open_bin (Filename.concat "golden" "value.md5")
      In_channel.input_lines
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check (list string)) "value digests" golden (golden_value_lines ())

let suite =
  [
    Alcotest.test_case "wrapping" `Quick test_wrapping;
    Alcotest.test_case "signedness" `Quick test_signedness;
    Alcotest.test_case "f32 rounding" `Quick test_f32_rounding;
    Alcotest.test_case "conversions" `Quick test_conversions;
    Alcotest.test_case "pointer arithmetic" `Quick test_pointer_arith;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "golden value semantics" `Quick test_golden_values;
  ]
  @ Test_util.qcheck_cases
      [
        binop_matches_int32; binop_matches_int64; shifts_match;
        f32_idempotent; conversion_roundtrip;
      ]
