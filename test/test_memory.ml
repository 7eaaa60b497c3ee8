(* Simulated-memory tests: typed load/store round trips, reinterpretation
   across types, bounds checking, snapshots. *)

open Cuda
open Gpusim

let test_roundtrip_all_types () =
  let mem = Memory.create () in
  let p = Memory.alloc mem ~name:"buf" ~elem:Ctype.UChar ~count:64 in
  let data = Memory.buffer mem p.Value.buf in
  let cases =
    [
      (Ctype.Int, Value.Int (-123456l));
      (Ctype.UInt, Value.UInt 0xDEADBEEFl);
      (Ctype.Long, Value.Long (-1234567890123L));
      (Ctype.ULong, Value.ULong 0xCBF29CE484222325L);
      (Ctype.Float, Value.Float 3.25);
      (Ctype.Double, Value.Double 2.718281828459045);
      (Ctype.Bool, Value.Bool true);
      (Ctype.UChar, Value.UInt 200l);
      (Ctype.Char, Value.Int (-5l));
      (Ctype.Short, Value.Int (-3000l));
      (Ctype.UShort, Value.UInt 60000l);
    ]
  in
  List.iter
    (fun (ty, v) ->
      Memory.store_bytes data 8 ty v;
      let got = Memory.load_bytes data 8 ty in
      if got <> v then
        Alcotest.failf "%s: stored %a, loaded %a" (Ctype.to_string ty)
          Value.pp v Value.pp got)
    cases

let test_reinterpret () =
  let mem = Memory.create () in
  let p = Memory.alloc mem ~name:"buf" ~elem:Ctype.Float ~count:4 in
  let data = Memory.buffer mem p.Value.buf in
  Memory.store_bytes data 0 Ctype.Float (Value.Float 1.0);
  (* the bit pattern of 1.0f *)
  Alcotest.(check bool) "float bits as u32" true
    (Memory.load_bytes data 0 Ctype.UInt = Value.UInt 0x3F800000l)

let test_bounds () =
  let mem = Memory.create () in
  let p = Memory.alloc mem ~name:"buf" ~elem:Ctype.Int ~count:4 in
  let data = Memory.buffer mem p.Value.buf in
  (match Memory.load_bytes data 16 Ctype.Int with
  | exception Value.Runtime_error msg ->
      Alcotest.(check bool) "mentions bounds" true
        (Test_util.contains msg "out-of-bounds")
  | _ -> Alcotest.fail "expected OOB error");
  (match Memory.load_bytes data 13 Ctype.Int with
  | exception Value.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected OOB on straddling load");
  match Memory.store_bytes data (-1) Ctype.Int (Value.Int 0l) with
  | exception Value.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected OOB on negative offset"

let test_fill_read () =
  let mem = Memory.create () in
  let p = Memory.alloc mem ~name:"f" ~elem:Ctype.Float ~count:8 in
  let xs = Array.init 8 (fun i -> float_of_int i /. 4.0) in
  Memory.fill_floats mem p xs;
  Alcotest.(check (array (float 0.0))) "floats round trip" xs
    (Memory.read_floats mem p 8);
  let q = Memory.alloc mem ~name:"i" ~elem:Ctype.Int ~count:5 in
  let ys = Array.init 5 (fun i -> Int32.of_int (i * 7 - 3)) in
  Memory.fill_int32s mem q ys;
  Alcotest.(check (array int32)) "int32s round trip" ys
    (Memory.read_int32s mem q 5)

let test_snapshot_equal () =
  let mk () =
    let mem = Memory.create () in
    let p = Memory.alloc mem ~name:"a" ~elem:Ctype.Int ~count:4 in
    Memory.fill_int32s mem p [| 1l; 2l; 3l; 4l |];
    (mem, p)
  in
  let m1, _ = mk () and m2, p2 = mk () in
  Alcotest.(check bool) "identical memories" true
    (Memory.equal_snapshot (Memory.snapshot m1) (Memory.snapshot m2));
  Memory.fill_int32s m2 p2 [| 9l |];
  Alcotest.(check bool) "detects difference" false
    (Memory.equal_snapshot (Memory.snapshot m1) (Memory.snapshot m2))

let test_buffer_names () =
  let mem = Memory.create () in
  let p = Memory.alloc mem ~name:"weights" ~elem:Ctype.Float ~count:2 in
  Alcotest.(check string) "name kept" "weights"
    (Memory.buffer_name mem p.Value.buf);
  Alcotest.(check int) "size in bytes" 8 (Memory.size_bytes mem p.Value.buf)

let test_deferred_init () =
  let mem = Memory.create () in
  let runs = ref 0 in
  let p =
    Memory.alloc mem ~name:"lazy" ~elem:Ctype.Int ~count:4 ~init:(fun d ->
        incr runs;
        Memory.store_int32s d [| 1l; 2l; 3l; 4l |])
  in
  let q = Memory.alloc mem ~name:"zero" ~elem:Ctype.Int ~count:2 in
  Alcotest.(check int) "ids in allocation order" 1 q.Value.buf;
  Alcotest.(check int) "not run by alloc" 0 !runs;
  Alcotest.(check int) "size without building" 16
    (Memory.size_bytes mem p.Value.buf);
  Alcotest.(check int) "not run by size_bytes" 0 !runs;
  Alcotest.(check (array int32)) "read_* builds" [| 1l; 2l; 3l; 4l |]
    (Memory.read_int32s mem p 4);
  ignore (Memory.buffer mem p.Value.buf);
  ignore (Memory.snapshot mem);
  ignore (Memory.read_int32s mem p 4);
  Memory.store_bytes (Memory.buffer mem p.Value.buf) 0 Ctype.Int (Value.Int 9l);
  Alcotest.(check (array int32)) "built bytes persist" [| 9l; 2l; 3l; 4l |]
    (Memory.read_int32s mem p 4);
  Alcotest.(check int) "init ran exactly once" 1 !runs;
  Alcotest.(check (array int32)) "no init: zero-filled" [| 0l; 0l |]
    (Memory.read_int32s mem q 2)

let suite =
  [
    Alcotest.test_case "typed round trips" `Quick test_roundtrip_all_types;
    Alcotest.test_case "reinterpretation" `Quick test_reinterpret;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "fill/read helpers" `Quick test_fill_read;
    Alcotest.test_case "snapshots" `Quick test_snapshot_equal;
    Alcotest.test_case "buffer names" `Quick test_buffer_names;
    Alcotest.test_case "deferred init" `Quick test_deferred_init;
  ]
