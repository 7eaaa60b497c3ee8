(* Append-only checkpoint journal; see checkpoint.mli.

   A {!Store.Journal} whose record payloads are

     T <key> <time encoding>        candidate time
     R <key> <report encoding>      measurement replay

   with the exact Profile_cache encodings.  A record that fails its
   digest or its decode is dropped on load and counted in [torn], so a
   resume recomputes it instead of failing. *)

(* bump when the record payload changes; journals written under an
   older grammar fail their line digests, load as torn and are
   recomputed, never misread *)
let version = "v3"

type entry = Gpusim.Timing.report * Gpusim.Timing.engine_stats

type t = {
  path : string;  (** [""] when disabled *)
  mutable journal : Store.Journal.t option;
  times : (string, float) Hashtbl.t;
  reports : (string, entry) Hashtbl.t;
  mutable loaded : int;
  mutable torn : int;
}

let default_dir = Filename.concat "_hfuse_cache" "journal"

let disabled =
  {
    path = "";
    journal = None;
    times = Hashtbl.create 1;
    reports = Hashtbl.create 1;
    loaded = 0;
    torn = 0;
  }

let enabled t = t.path <> ""
let path t = t.path
let loaded t = t.loaded
let torn t = t.torn

(* The simulation fuel changes every simulated outcome (a run that
   times out under a small budget may succeed under a larger one), so a
   journal written under one HFUSE_SIM_FUEL must never be resumed under
   another — fold the effective fuel into the identity.  The traced-
   block count is folded in for the same reason: every profiled time is
   a function of how many blocks were traced, so resuming a 1-block
   journal under HFUSE_TRACE_BLOCKS=4 must re-profile, not replay. *)
let run_id ~(sim_fuel : int) ~(trace_blocks : int) ~(parts : string list) () :
    string =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (parts
          @ [
              Printf.sprintf "sim_fuel=%d" sim_fuel;
              Printf.sprintf "trace_blocks=%d" trace_blocks;
            ])))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

let append t ~kind ~key (payload : string) : unit =
  Option.iter
    (fun j -> Store.Journal.append j (String.concat " " [ kind; key; payload ]))
    t.journal

(* ["<kind> <key> <payload>"]; raises on anything else *)
let load_record (t : t) (record : string) : unit =
  let i = String.index record ' ' in
  let j = String.index_from record (i + 1) ' ' in
  let key = String.sub record (i + 1) (j - i - 1) in
  let payload = String.sub record (j + 1) (String.length record - j - 1) in
  (match String.sub record 0 i with
  | "T" -> Hashtbl.replace t.times key (Profile_cache.decode_time payload)
  | "R" -> Hashtbl.replace t.reports key (Profile_cache.decode_report payload)
  | _ -> failwith "journal record kind");
  t.loaded <- t.loaded + 1

let open_ ?(dir = default_dir) ~(run_id : string) () : t =
  let path = Filename.concat dir (run_id ^ ".jnl") in
  let header = Printf.sprintf "hfuse-journal %s run %s" version run_id in
  let journal, records, torn =
    Store.Journal.open_ ~header:(Some header) path
  in
  let t =
    {
      path;
      journal = Some journal;
      times = Hashtbl.create 64;
      reports = Hashtbl.create 64;
      loaded = 0;
      torn;
    }
  in
  List.iter
    (fun r -> try load_record t r with _ -> t.torn <- t.torn + 1)
    records;
  t

(* ------------------------------------------------------------------ *)
(* Records                                                              *)
(* ------------------------------------------------------------------ *)

let find_time t ~key = if enabled t then Hashtbl.find_opt t.times key else None

let record_time t ~key (v : float) : unit =
  if enabled t && not (Hashtbl.mem t.times key) then begin
    Hashtbl.replace t.times key v;
    append t ~kind:"T" ~key (Profile_cache.encode_time v)
  end

let find_report t ~key =
  if enabled t then Hashtbl.find_opt t.reports key else None

let record_report t ~key (v : entry) : unit =
  if enabled t && not (Hashtbl.mem t.reports key) then begin
    Hashtbl.replace t.reports key v;
    append t ~kind:"R" ~key (Profile_cache.encode_report v)
  end

let flush t = Option.iter Store.Journal.flush t.journal

let close t =
  Option.iter Store.Journal.close t.journal;
  t.journal <- None
