(* Deterministic chaos injection (see the interface for the model).

   A fault plan is a set of per-kind probabilities plus a campaign
   seed.  Draws are pure: [fires k ~key] hashes (seed, kind, key)
   through a SplitMix64-style finalizer and compares the top 53 bits
   against the rate, so the same call site faults (or not) identically
   on every run, at any [-j], in any interleaving.  No wall clock and
   no global PRNG anywhere.

   A plan is a value the caller passes to every draw ([?plan]; omitted
   means no faults).  The tallies are process-wide [Atomic] counters,
   so injection points on worker domains can note faults without
   locks. *)

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
(* Tally                                                                *)
(* ------------------------------------------------------------------ *)

type tally = { injected : (kind * int) list; recovered : (kind * int) list }

let injected_counts = Array.init nkinds (fun _ -> Atomic.make 0)
let recovered_counts = Array.init nkinds (fun _ -> Atomic.make 0)
let note_injected k = Atomic.incr injected_counts.(kind_index k)
let note_recovered k = Atomic.incr recovered_counts.(kind_index k)

let tally () =
  let snap arr = List.map (fun k -> (k, Atomic.get arr.(kind_index k))) all_kinds in
  { injected = snap injected_counts; recovered = snap recovered_counts }

let total arr = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 arr
let injected_total () = total injected_counts
let recovered_total () = total recovered_counts

let reset_tally () =
  Array.iter (fun c -> Atomic.set c 0) injected_counts;
  Array.iter (fun c -> Atomic.set c 0) recovered_counts

(* Per-request telemetry in a long-lived process: snapshot the
   cumulative tally around a request and report the delta.  Counters
   only grow, so the difference is non-negative for a consistent pair
   of snapshots; clamping guards a reset between them. *)
let diff ~(before : tally) ~(after : tally) : tally =
  let sub a b =
    List.map
      (fun (k, n) ->
        let m = try List.assoc k b with Not_found -> 0 in
        (k, max 0 (n - m)))
      a
  in
  { injected = sub after.injected before.injected;
    recovered = sub after.recovered before.recovered }

let pp_tally ppf (t : tally) =
  let count kind l = try List.assoc kind l with Not_found -> 0 in
  let sum l = List.fold_left (fun acc (_, n) -> acc + n) 0 l in
  Fmt.pf ppf "injected %d (crash %d, corrupt %d, hang %d), recovered %d"
    (sum t.injected)
    (count Worker_crash t.injected)
    (count Cache_corrupt t.injected)
    (count Sim_hang t.injected)
    (sum t.recovered)

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
