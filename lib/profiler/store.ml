(* Checksummed entries and append-only journals; see store.mli for
   both on-disk grammars. *)

module Fault = Hfuse_fault.Fault

(* EEXIST is success: several workers (or several processes sharing a
   cache root) may race to create one directory. *)
let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" then
    match Unix.mkdir d 0o755 with
    | () -> ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
        mkdir_p (Filename.dirname d);
        (try Unix.mkdir d 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

let md5 s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* Checksummed entries                                                  *)
(* ------------------------------------------------------------------ *)

type t = {
  header : string;  (** ["<magic> <version>"] *)
  dir : string;
  fault : Fault.plan option;
}

let create ~magic ~version ~fault dir =
  { header = magic ^ " " ^ version; dir; fault }

let dir t = t.dir

type 'a read = Absent | Corrupt | Found of 'a

(* the payload, if the header names this store and its digest matches *)
let parse t (raw : string) : string option =
  match String.index_opt raw '\n' with
  | None -> None
  | Some nl ->
      let payload = String.sub raw (nl + 1) (String.length raw - nl - 1) in
      if String.sub raw 0 nl = t.header ^ " " ^ md5 payload then Some payload
      else None

(* A failing entry is evidence of a crash or corruption, not a stale
   format: keep the bytes for post-mortem and get the entry out of the
   lookup path so the value is recomputed. *)
let quarantine t ~key ~path =
  let qdir = Filename.concat (Filename.dirname t.dir) "quarantine" in
  (try
     mkdir_p qdir;
     Sys.rename path (Filename.concat qdir key)
   with Sys_error _ -> ( try Sys.remove path with Sys_error _ -> ()));
  if Fault.enabled ?plan:t.fault () then
    Fault.note_recovered Fault.Cache_corrupt

let read t ~key decode =
  let path = Filename.concat t.dir key in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> Absent
  | raw -> (
      match Option.map decode (parse t raw) with
      | Some v -> Found v
      | None ->
          quarantine t ~key ~path;
          Corrupt
      | exception _ ->
          (* the digest passed but the payload does not decode: the
             format and the checksum disagree — same treatment *)
          quarantine t ~key ~path;
          Corrupt)

let tmp_seq = Atomic.make 0

let write t ~key payload =
  mkdir_p t.dir;
  let final = Filename.concat t.dir key in
  (* pid + per-process counter: unique even when one process stores the
     same key twice or two processes share the directory *)
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" final (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  Out_channel.with_open_bin tmp (fun oc ->
      Printf.fprintf oc "%s %s\n" t.header (md5 payload);
      output_string oc payload);
  Sys.rename tmp final;
  (* chaos hook: a crash that committed a torn entry.  Drawn from the
     key, so the same (seed, key) corrupts on every run regardless of
     scheduling. *)
  if
    Fault.enabled ?plan:t.fault ()
    && Fault.fires ?plan:t.fault Fault.Cache_corrupt ~key:(Hashtbl.hash key)
  then begin
    Fault.note_injected Fault.Cache_corrupt;
    try Unix.truncate final (max 8 (String.length payload / 2))
    with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Append-only journal                                                  *)
(* ------------------------------------------------------------------ *)

module Journal = struct
  type t = out_channel

  let escape (s : string) : string =
    let buf = Buffer.create (String.length s + 16) in
    String.iter
      (function
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\x00' -> Buffer.add_string buf "\\z"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let unescape (s : string) : string =
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      (match s.[!i] with
      | '\\' when !i + 1 < n ->
          incr i;
          Buffer.add_char buf
            (match s.[!i] with 'n' -> '\n' | 'z' -> '\x00' | c -> c)
      | c -> Buffer.add_char buf c);
      incr i
    done;
    Buffer.contents buf

  (* ["<md5> <escaped>"] -> payload *)
  let parse_line (line : string) : string option =
    if String.length line >= 33 && line.[32] = ' ' then
      let escaped = String.sub line 33 (String.length line - 33) in
      if String.sub line 0 32 = md5 escaped then Some (unescape escaped)
      else None
    else None

  let open_ ~header path =
    let raw =
      try In_channel.with_open_bin path In_channel.input_all
      with Sys_error _ -> ""
    in
    let records, torn =
      List.fold_left
        (fun (acc, torn) line ->
          if line = "" || line.[0] = '#' then (acc, torn)
          else
            match parse_line line with
            | Some p -> (p :: acc, torn)
            | None -> (acc, torn + 1))
        ([], 0)
        (String.split_on_char '\n' raw)
    in
    mkdir_p (Filename.dirname path);
    let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
    if raw = "" then Option.iter (Printf.fprintf oc "# %s\n") header
    else if raw.[String.length raw - 1] <> '\n' then
      (* end the torn tail's line, so the next record does not fuse onto
         it and get dropped with it *)
      output_char oc '\n';
    (oc, List.rev records, torn)

  let append oc payload =
    let escaped = escape payload in
    Printf.fprintf oc "%s %s\n" (md5 escaped) escaped;
    (* durable the moment it is written: a kill can only tear the line
       in flight, which the load-time digest drops *)
    Stdlib.flush oc

  let close oc =
    (try Stdlib.flush oc with Sys_error _ -> ());
    close_out_noerr oc
end
