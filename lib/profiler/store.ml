(* Checksummed entries; see store.mli for the on-disk grammar. *)

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
