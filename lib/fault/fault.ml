(* Deterministic chaos injection (see the interface for the model).

   A fault plan is a set of per-kind probabilities plus a campaign
   seed.  Draws are pure: [fires k ~key] hashes (seed, kind, key)
   through a SplitMix64-style finalizer and compares the top 53 bits
   against the rate, so the same call site faults (or not) identically
   on every run, at any [-j], in any interleaving.  No wall clock and
   no global PRNG anywhere.

   A plan is a value the caller passes to every draw ([?plan]; omitted
   means no faults).  Injections and recoveries are counted in the
   ledger of the request that drew them. *)

type kind = Worker_crash | Cache_corrupt | Sim_hang

let all_kinds = [ Worker_crash; Cache_corrupt; Sim_hang ]

let kind_name = function
  | Worker_crash -> "worker_crash"
  | Cache_corrupt -> "cache_corrupt"
  | Sim_hang -> "sim_hang"

let kind_index = function Worker_crash -> 0 | Cache_corrupt -> 1 | Sim_hang -> 2
let nkinds = 3

exception Injected of kind

(** A malformed fault spec.  Raised instead of exiting: library code
    must never kill its host process (a daemon serving many requests
    maps this to one failed request, the CLI maps it to exit 2). *)
exception Invalid_spec of string

let () =
  Printexc.register_printer (function
    | Injected k -> Some ("Fault.Injected(" ^ kind_name k ^ ")")
    | Invalid_spec msg -> Some ("Fault.Invalid_spec(" ^ msg ^ ")")
    | _ -> None)

type plan = { seed : int; rates : float array (* indexed by kind_index *) }

(* ------------------------------------------------------------------ *)
(* Spec parsing                                                         *)
(* ------------------------------------------------------------------ *)

let kind_of_name = function
  | "worker_crash" -> Some Worker_crash
  | "cache_corrupt" -> Some Cache_corrupt
  | "sim_hang" -> Some Sim_hang
  | _ -> None

let plan_of_spec (spec : string) : plan option =
  let bad fmt = Printf.ksprintf (fun msg -> raise (Invalid_spec msg)) fmt in
  let spec = String.trim spec in
  if spec = "" then None
  else
    let rates = Array.make nkinds 0.0 in
    let seed = ref 1 in
    let entry e =
      match String.index_opt e ':' with
      | None -> bad "expected kind:rate, got %S" e
      | Some i -> (
          let name = String.trim (String.sub e 0 i) in
          let v = String.trim (String.sub e (i + 1) (String.length e - i - 1)) in
          match (name, kind_of_name name) with
          | "seed", _ -> (
              match int_of_string_opt v with
              | Some s -> seed := s
              | None -> bad "seed expects an integer, got %S" v)
          | _, None -> bad "unknown fault kind %S" name
          | _, Some k -> (
              match float_of_string_opt v with
              | Some r when r >= 0.0 && r <= 1.0 -> rates.(kind_index k) <- r
              | _ -> bad "rate for %s must be in [0, 1], got %S" name v))
    in
    List.iter entry
      (List.filter (fun s -> String.trim s <> "") (String.split_on_char ',' spec));
    Some { seed = !seed; rates }

(* Round-trips through {!plan_of_spec}: rates print with enough digits
   to reparse exactly, so a client can ship its plan to a server
   verbatim. *)
let to_spec (p : plan) : string =
  let parts =
    List.filter_map
      (fun k ->
        let r = p.rates.(kind_index k) in
        if r > 0.0 then Some (Printf.sprintf "%s:%.17g" (kind_name k) r)
        else None)
      all_kinds
  in
  String.concat "," (parts @ [ "seed:" ^ string_of_int p.seed ])

let enabled ?plan () = plan <> None

let rate ?plan k =
  match plan with
  | None -> 0.0
  | Some p -> p.rates.(kind_index k)

(* ------------------------------------------------------------------ *)
(* Draws                                                                *)
(* ------------------------------------------------------------------ *)

(* SplitMix64 finalizer: full-avalanche mix, so consecutive keys give
   independent-looking draws (same construction as Kernel_corpus.Prng,
   replicated here to keep this library dependency-free). *)
let mix64 (z : int64) : int64 =
  let z = Int64.add z 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let mix (a : int) (b : int) : int =
  Int64.to_int (mix64 (Int64.logxor (mix64 (Int64.of_int a)) (Int64.of_int b)))

(* top 53 bits as a uniform float in [0, 1) *)
let uniform ~(seed : int) ~(salt : int) ~(key : int) : float =
  let h = mix64 (Int64.of_int (mix (mix seed salt) key)) in
  Int64.to_float (Int64.shift_right_logical h 11) *. 0x1p-53

let fires ?plan k ~key =
  match plan with
  | None -> false
  | Some p ->
      let r = p.rates.(kind_index k) in
      r > 0.0 && uniform ~seed:p.seed ~salt:(kind_index k) ~key < r

let key_seq = Array.init nkinds (fun _ -> Atomic.make 0)
let fresh_key k = Atomic.fetch_and_add key_seq.(kind_index k) 1

(* Deterministic backoff: 0.5 ms * 2^attempt (capped at 2^6), plus up
   to 100% seed-mixed jitter so simultaneous retries de-correlate —
   still a pure function of (key, attempt). *)
let jitter ?plan ~key ~attempt () =
  let seed = match plan with None -> 0 | Some p -> p.seed in
  let base = 0.0005 *. Float.of_int (1 lsl min attempt 6) in
  base *. (1.0 +. uniform ~seed ~salt:100 ~key:(mix key attempt))

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)
(* ------------------------------------------------------------------ *)

(* the ledger's [fault] section: every kind's injections, then every
   kind's recoveries, each nested under its group in JSON *)
let declare group =
  Array.map (fun k -> Ledger.counter "fault" (group ^ "." ^ kind_name k))
    [| Worker_crash; Cache_corrupt; Sim_hang |]

let injected_c = declare "injected"
let recovered_c = declare "recovered"
let note_injected k = Ledger.add injected_c.(kind_index k) 1
let note_recovered k = Ledger.add recovered_c.(kind_index k) 1
let injected l k = Ledger.get l injected_c.(kind_index k)
let recovered l k = Ledger.get l recovered_c.(kind_index k)

let pp_tally ppf (l : Ledger.t) =
  let sum count = List.fold_left (fun acc k -> acc + count l k) 0 all_kinds in
  Fmt.pf ppf "injected %d (crash %d, corrupt %d, hang %d), recovered %d"
    (sum injected)
    (injected l Worker_crash)
    (injected l Cache_corrupt)
    (injected l Sim_hang)
    (sum recovered)

(* ------------------------------------------------------------------ *)
(* Retry wrapper                                                        *)
(* ------------------------------------------------------------------ *)

(* Injected faults are transient by construction (a retry re-draws or
   skips the injection point), so they always get another attempt, up
   to a hard cap that only a rate close to 1.0 can reach.  Real
   exceptions are retried [budget] times — in a deterministic
   simulator a genuine failure usually repeats, so the default is no
   retry.  No sleeping here: this library has no Unix dependency;
   callers that want backoff pair the loop with {!jitter}. *)
let injected_cap = 64

let with_retries ?(budget = 0) ~key:_ (f : unit -> 'a) : 'a =
  let rec go attempt =
    match f () with
    | v -> v
    | exception Injected k when attempt < injected_cap ->
        (* recovery is noted when the retried attempt succeeds *)
        let v = go (attempt + 1) in
        note_recovered k;
        v
    | exception e when (match e with Injected _ -> false | _ -> true) && attempt < budget ->
        let bt = Printexc.get_raw_backtrace () in
        (match go (attempt + 1) with
        | v -> v
        | exception _ -> Printexc.raise_with_backtrace e bt)
  in
  go 0
