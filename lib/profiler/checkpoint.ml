(* Identity of a resumable run; see checkpoint.mli. *)

let default_dir = Filename.concat "_hfuse_cache" "journal"

(* The simulation fuel changes every simulated outcome (a run that
   times out under a small budget may succeed under a larger one), so a
   run resumed under another HFUSE_SIM_FUEL must not share its root —
   fold the effective fuel into the identity.  The traced-block count
   is folded in for the same reason: every profiled time is a function
   of how many blocks were traced. *)
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
