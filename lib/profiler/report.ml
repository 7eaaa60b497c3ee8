(* Text renderings of the evaluation artifacts, in the shape the paper
   prints them ("X / Y" cells are 1080Ti / V100). *)

open Kernel_corpus

let pair_name ((s1, s2) : Spec.t * Spec.t) =
  Printf.sprintf "*%s*+%s" s1.Spec.name s2.Spec.name

let pp_reg_bound ppf = function
  | None -> Fmt.string ppf "-"
  | Some r -> Fmt.int ppf r

(* ------------------------------------------------------------------ *)
(* Figure 7                                                             *)
(* ------------------------------------------------------------------ *)

let render_sweep (b : Buffer.t) (s : Experiment.sweep) =
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "%s on %s\n" (pair_name s.pair) s.arch.Gpusim.Arch.name;
  add
    "  %8s %8s %10s | %8s %8s %8s | %10s %9s\n"
    "size1" "ratio" "native ms" "HFuse%" "VFuse%" "Naive%" "partition" "regbound";
  List.iter
    (fun (p : Experiment.point) ->
      let sp fused = Experiment.speedup ~native:p.native_ms ~fused in
      add "  %8d %8.2f %10.4f | %+8.1f %8s %8s | %5d/%-5d %9s\n" p.size1
        p.ratio p.native_ms (sp p.hfuse_ms)
        (match p.vfuse_ms with
        | Some v -> Printf.sprintf "%+.1f" (sp v)
        | None -> "n/a")
        (match p.naive_ms with
        | Some v -> Printf.sprintf "%+.1f" (sp v)
        | None -> "-")
        p.hfuse_d1 p.hfuse_d2
        (Fmt.str "%a" pp_reg_bound p.hfuse_reg_bound))
    s.points;
  add "  average speedup: HFuse %+.1f%%   VFuse %s\n\n"
    (Experiment.avg_hfuse_speedup s)
    (let v = Experiment.avg_vfuse_speedup s in
     if Float.is_nan v then "n/a" else Printf.sprintf "%+.1f%%" v)

let figure7_to_string (sweeps : Experiment.sweep list) : string =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    "== Figure 7: kernel execution time speedup vs execution-time ratio ==\n\n";
  List.iter (render_sweep b) sweeps;
  (* summary in the shape of the paper's headline claims *)
  let by_arch name =
    List.filter (fun (s : Experiment.sweep) -> s.arch.Gpusim.Arch.name = name)
      sweeps
  in
  let wins sweeps =
    List.length
      (List.filter
         (fun s ->
           let h = Experiment.avg_hfuse_speedup s in
           let v = Experiment.avg_vfuse_speedup s in
           h > 0.0 && (Float.is_nan v || h > v))
         sweeps)
  in
  List.iter
    (fun arch_name ->
      let ss = by_arch arch_name in
      if ss <> [] then
        Buffer.add_string b
          (Printf.sprintf
             "%s: HFuse beats both native and VFuse (on average) for %d of \
              %d pairs\n"
             arch_name (wins ss) (List.length ss)))
    [ "1080Ti"; "V100" ];
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Figure 8                                                             *)
(* ------------------------------------------------------------------ *)

let cell2 f rows =
  (* "X / Y" pairs across the two architectures *)
  match rows with
  | [ (_, a); (_, b) ] -> Printf.sprintf "%.2f / %.2f" (f a) (f b)
  | [ (_, a) ] -> Printf.sprintf "%.2f" (f a)
  | _ -> "-"

let figure8_to_string (rows : Experiment.kernel_row list) : string =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "== Figure 8: metrics of individual kernels (1080Ti / V100) ==\n\n";
  add "%-12s %22s %22s %22s %22s\n" "Kernel" "Exec time (ms)"
    "IssueSlotUtil (%)" "MemInst Stall (%)" "Occupancy (%)";
  List.iter
    (fun (r : Experiment.kernel_row) ->
      add "%-12s %22s %22s %22s %22s\n" r.kernel.Spec.name
        (cell2 (fun m -> m.Gpusim.Metrics.time_ms) r.per_arch)
        (cell2 (fun m -> m.Gpusim.Metrics.issue_slot_util) r.per_arch)
        (cell2 (fun m -> m.Gpusim.Metrics.mem_stall) r.per_arch)
        (cell2 (fun m -> m.Gpusim.Metrics.occupancy) r.per_arch))
    rows;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Figure 9                                                             *)
(* ------------------------------------------------------------------ *)

let figure9_to_string (rows : Experiment.fused_row list) : string =
  let b = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add
    "== Figure 9: metrics of HFuse fused kernels (per architecture) ==\n\n";
  add "%-24s %-7s %-9s %9s %10s %10s %8s %6s %10s\n" "Pair" "Arch" "Type"
    "Speedup%" "FusedUtil%" "NativeUtil%" "MemStall%" "Occ%" "partition";
  List.iter
    (fun (r : Experiment.fused_row) ->
      let variant name (v : Experiment.fused_variant) =
        add "%-24s %-7s %-9s %9.1f %10.2f %10.2f %8.1f %6.1f %6d/%-4d%s\n"
          (Printf.sprintf "%s+%s" (fst r.f_pair).Spec.name
             (snd r.f_pair).Spec.name)
          r.f_arch.Gpusim.Arch.name name v.speedup_pct
          v.metrics.Gpusim.Metrics.issue_slot_util r.native_util
          v.metrics.Gpusim.Metrics.mem_stall v.metrics.Gpusim.Metrics.occupancy
          v.d1 v.d2
          (match v.reg_bound with
          | None -> ""
          | Some rb -> Printf.sprintf " r0=%d" rb)
      in
      variant "N-RegCap" r.no_regcap;
      Option.iter (variant "RegCap") r.regcap)
    rows;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON (hand-rolled; the perf-trajectory files future PRs diff)        *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let opt f = function None -> Null | Some x -> f x

  (* Shortest decimal string that round-trips the float exactly, so the
     files stay stable (and diffable) across emitter runs. *)
  let float_str f =
    if not (Float.is_finite f) then "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else
      let s15 = Printf.sprintf "%.15g" f in
      if float_of_string s15 = f then s15
      else
        let s16 = Printf.sprintf "%.16g" f in
        if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f

  let escape b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let rec emit b indent t =
    let pad n = Buffer.add_string b (String.make n ' ') in
    match t with
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_str f)
    | Str s -> escape b s
    | List [] -> Buffer.add_string b "[]"
    | List xs ->
        Buffer.add_string b "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string b ",\n";
            pad (indent + 2);
            emit b (indent + 2) x)
          xs;
        Buffer.add_char b '\n';
        pad indent;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
        Buffer.add_string b "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string b ",\n";
            pad (indent + 2);
            escape b k;
            Buffer.add_string b ": ";
            emit b (indent + 2) v)
          kvs;
        Buffer.add_char b '\n';
        pad indent;
        Buffer.add_char b '}'

  let to_string t =
    let b = Buffer.create 4096 in
    emit b 0 t;
    Buffer.add_char b '\n';
    Buffer.contents b

  (* compact single-line emission: the daemon's newline-delimited wire
     framing needs values with no embedded raw newlines ([escape]
     already encodes them inside strings).  [of_string] reads both
     forms identically. *)
  let rec emit_compact b t =
    match t with
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_str f)
    | Str s -> escape b s
    | List xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            emit_compact b x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            escape b k;
            Buffer.add_char b ':';
            emit_compact b v)
          kvs;
        Buffer.add_char b '}'

  let to_line t =
    let b = Buffer.create 1024 in
    emit_compact b t;
    Buffer.contents b

  (* -- parsing (the bench regression gate reads committed baselines) -- *)

  exception Parse_error of string

  type parser_state = { src : string; mutable pos : int }

  let peek_char st =
    if st.pos < String.length st.src then Some st.src.[st.pos] else None

  let skip_ws st =
    while
      st.pos < String.length st.src
      && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      st.pos <- st.pos + 1
    done

  let expect st c =
    if peek_char st = Some c then st.pos <- st.pos + 1
    else
      raise
        (Parse_error
           (Printf.sprintf "expected '%c' at offset %d" c st.pos))

  let literal st word value =
    let n = String.length word in
    if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word
    then (
      st.pos <- st.pos + n;
      value)
    else raise (Parse_error (Printf.sprintf "bad literal at offset %d" st.pos))

  let parse_string_lit st =
    expect st '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek_char st with
      | None -> raise (Parse_error "unterminated string")
      | Some '"' -> st.pos <- st.pos + 1
      | Some '\\' -> (
          st.pos <- st.pos + 1;
          match peek_char st with
          | Some 'n' -> Buffer.add_char b '\n'; st.pos <- st.pos + 1; go ()
          | Some 't' -> Buffer.add_char b '\t'; st.pos <- st.pos + 1; go ()
          | Some 'r' -> Buffer.add_char b '\r'; st.pos <- st.pos + 1; go ()
          | Some 'u' ->
              if st.pos + 5 > String.length st.src then
                raise (Parse_error "truncated \\u escape");
              let code = int_of_string ("0x" ^ String.sub st.src (st.pos + 1) 4) in
              (* the emitter only writes \u for control bytes *)
              Buffer.add_char b (Char.chr (code land 0xff));
              st.pos <- st.pos + 5;
              go ()
          | Some c -> Buffer.add_char b c; st.pos <- st.pos + 1; go ()
          | None -> raise (Parse_error "unterminated escape"))
      | Some c ->
          Buffer.add_char b c;
          st.pos <- st.pos + 1;
          go ()
    in
    go ();
    Buffer.contents b

  let parse_number st =
    let start = st.pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while
      st.pos < String.length st.src && is_num_char st.src.[st.pos]
    do
      st.pos <- st.pos + 1
    done;
    let s = String.sub st.src start (st.pos - start) in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'E'
    then Float (float_of_string s)
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> Float (float_of_string s)

  let rec parse_value st =
    skip_ws st;
    match peek_char st with
    | None -> raise (Parse_error "unexpected end of input")
    | Some '{' ->
        st.pos <- st.pos + 1;
        skip_ws st;
        if peek_char st = Some '}' then (
          st.pos <- st.pos + 1;
          Obj [])
        else
          let rec members acc =
            skip_ws st;
            let k = parse_string_lit st in
            skip_ws st;
            expect st ':';
            let v = parse_value st in
            skip_ws st;
            match peek_char st with
            | Some ',' ->
                st.pos <- st.pos + 1;
                members ((k, v) :: acc)
            | Some '}' ->
                st.pos <- st.pos + 1;
                Obj (List.rev ((k, v) :: acc))
            | _ -> raise (Parse_error "expected ',' or '}'")
          in
          members []
    | Some '[' ->
        st.pos <- st.pos + 1;
        skip_ws st;
        if peek_char st = Some ']' then (
          st.pos <- st.pos + 1;
          List [])
        else
          let rec elements acc =
            let v = parse_value st in
            skip_ws st;
            match peek_char st with
            | Some ',' ->
                st.pos <- st.pos + 1;
                elements (v :: acc)
            | Some ']' ->
                st.pos <- st.pos + 1;
                List (List.rev (v :: acc))
            | _ -> raise (Parse_error "expected ',' or ']'")
          in
          elements []
    | Some '"' -> Str (parse_string_lit st)
    | Some 't' -> literal st "true" (Bool true)
    | Some 'f' -> literal st "false" (Bool false)
    | Some 'n' -> literal st "null" Null
    | Some _ -> parse_number st

  let of_string (s : string) : (t, string) result =
    let st = { src = s; pos = 0 } in
    match parse_value st with
    | v ->
        skip_ws st;
        if st.pos = String.length s then Ok v
        else Error (Printf.sprintf "trailing input at offset %d" st.pos)
    | exception Parse_error msg -> Error msg
    | exception Failure msg -> Error msg

  (* -- structural helpers for gate-style consumers -- *)

  let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

  let to_float_opt = function
    | Float f -> Some f
    | Int i -> Some (float_of_int i)
    (* non-finite floats serialize as [null] (JSON has no inf/nan);
       failed candidates carry infinite time, so [null] reads back as
       the infinity it stood for rather than vanishing — a gate
       comparing two reports must see the failure, not a missing key *)
    | Null -> Some Float.infinity
    | _ -> None
end

type telemetry_sums = (string * (string * int) list) list

(* Nested objects (the per-kind fault tallies) collapse into their
   field's total. *)
let add_telemetry (acc : telemetry_sums) (t : Json.t) : telemetry_sums =
  let bump section acc (field, n) =
    let fields = Option.value (List.assoc_opt section acc) ~default:[] in
    let v = Option.value (List.assoc_opt field fields) ~default:0 in
    (section, (field, v + n) :: List.remove_assoc field fields)
    :: List.remove_assoc section acc
  in
  let leaves (field, v) =
    match v with
    | Json.Int n -> [ (field, n) ]
    | Json.Obj kinds ->
        List.filter_map
          (function _, Json.Int n -> Some (field, n) | _ -> None)
          kinds
    | _ -> []
  in
  match t with
  | Json.Obj sections ->
      List.fold_left
        (fun acc (section, body) ->
          match body with
          | Json.Obj fields ->
              List.fold_left (bump section) acc (List.concat_map leaves fields)
          | _ -> acc)
        acc sections
  | _ -> acc

let telemetry_get (t : telemetry_sums) section field =
  match List.assoc_opt section t with
  | None -> 0
  | Some fields -> Option.value (List.assoc_opt field fields) ~default:0

let json_of_metrics (m : Gpusim.Metrics.t) : Json.t =
  Json.Obj
    [
      ("time_ms", Json.Float m.Gpusim.Metrics.time_ms);
      ("elapsed_cycles", Json.Int m.Gpusim.Metrics.elapsed_cycles);
      ("issue_slot_util", Json.Float m.Gpusim.Metrics.issue_slot_util);
      ("mem_stall", Json.Float m.Gpusim.Metrics.mem_stall);
      ("occupancy", Json.Float m.Gpusim.Metrics.occupancy);
    ]

(* A ledger section as one object, fields in declaration order; the
   members of a dotted group, declared together, nest under it
   ([injected.worker_crash] becomes [injected: {worker_crash: ..}]). *)
let json_of_section ?(gauges = []) (l : Ledger.t) (section : string) : Json.t =
  let leaf = function
    | Ledger.Int n -> Json.Int n
    | Ledger.Float s -> Json.Float s
  in
  let nest (name, v) fields =
    match (String.split_on_char '.' name, fields) with
    | [ group; field ], (g, Json.Obj members) :: rest when g = group ->
        (group, Json.Obj ((field, leaf v) :: members)) :: rest
    | [ group; field ], _ -> (group, Json.Obj [ (field, leaf v) ]) :: fields
    | _ -> (name, leaf v) :: fields
  in
  Json.Obj (List.fold_right nest (Ledger.fields l section) gauges)

let json_of_trace_store (l : Ledger.t) : Json.t =
  json_of_section l "trace_store"
    ~gauges:
      [
        ("mem_entries", Json.Int (Trace_store.mem_entries ()));
        ("mem_bytes", Json.Int (Trace_store.mem_bytes ()));
      ]

let json_of_cache (c : Profile_cache.t) : Json.t =
  Json.Obj
    [
      ("enabled", Json.Bool (Profile_cache.enabled c));
      ("hits", Json.Int (Profile_cache.hits c));
      ("misses", Json.Int (Profile_cache.misses c));
      ("stores", Json.Int (Profile_cache.stores c));
      ("quarantined", Json.Int (Profile_cache.corrupt c));
    ]

let figure7_json (sweeps : Experiment.sweep list) : Json.t =
  let point (p : Experiment.point) =
    Json.Obj
      [
        ("size1", Json.Int p.size1);
        ("size2", Json.Int p.size2);
        ("ratio", Json.Float p.ratio);
        ("native_ms", Json.Float p.native_ms);
        ("hfuse_ms", Json.Float p.hfuse_ms);
        ("hfuse_d1", Json.Int p.hfuse_d1);
        ("hfuse_d2", Json.Int p.hfuse_d2);
        ("hfuse_reg_bound", Json.opt (fun r -> Json.Int r) p.hfuse_reg_bound);
        ("vfuse_ms", Json.opt (fun v -> Json.Float v) p.vfuse_ms);
        ("naive_ms", Json.opt (fun v -> Json.Float v) p.naive_ms);
      ]
  in
  Json.List
    (List.map
       (fun (s : Experiment.sweep) ->
         Json.Obj
           [
             ("pair", Json.Str (pair_name s.pair));
             ("arch", Json.Str s.arch.Gpusim.Arch.name);
             ("varied_first", Json.Bool s.varied_first);
             ("avg_hfuse_speedup", Json.Float (Experiment.avg_hfuse_speedup s));
             ("avg_vfuse_speedup", Json.Float (Experiment.avg_vfuse_speedup s));
             ("points", Json.List (List.map point s.points));
           ])
       sweeps)

let figure8_json (rows : Experiment.kernel_row list) : Json.t =
  Json.List
    (List.map
       (fun (r : Experiment.kernel_row) ->
         Json.Obj
           [
             ("kernel", Json.Str r.kernel.Spec.name);
             ( "per_arch",
               Json.List
                 (List.map
                    (fun (arch, m) ->
                      Json.Obj
                        [
                          ("arch", Json.Str arch.Gpusim.Arch.name);
                          ("metrics", json_of_metrics m);
                        ])
                    r.per_arch) );
           ])
       rows)

let figure9_json (rows : Experiment.fused_row list) : Json.t =
  let variant (v : Experiment.fused_variant) =
    Json.Obj
      [
        ("speedup_pct", Json.Float v.speedup_pct);
        ("metrics", json_of_metrics v.metrics);
        ("d1", Json.Int v.d1);
        ("d2", Json.Int v.d2);
        ("reg_bound", Json.opt (fun r -> Json.Int r) v.reg_bound);
      ]
  in
  Json.List
    (List.map
       (fun (r : Experiment.fused_row) ->
         Json.Obj
           [
             ( "pair",
               Json.Str
                 (Printf.sprintf "%s+%s" (fst r.f_pair).Spec.name
                    (snd r.f_pair).Spec.name) );
             ("arch", Json.Str r.f_arch.Gpusim.Arch.name);
             ("native_util", Json.Float r.native_util);
             ("no_regcap", variant r.no_regcap);
             ("regcap", Json.opt variant r.regcap);
           ])
       rows)
