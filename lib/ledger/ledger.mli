(** Named counters, counted for the request that did the work.

    A counter belongs to a section (["pool"], ["search"], ...) and is
    declared at module initialisation by the module that owns it.  A
    request runs within a ledger of its own ({!run}), its domain's
    current one; every {!add} lands there, in each ledger it was opened
    under, and in the {!process} ledger.  Pool tasks run under their
    submitter's ledger, so concurrent requests each count only their
    own work, on any domain. *)

(** Counts and wall seconds add up; a [Max] keeps the largest value
    added (from 0; a nan changes nothing). *)
type kind = Count | Seconds | Max

type counter

(** [counter section name] (default [~kind:Count]).  Sections list
    their counters in declaration order. *)
val counter : ?kind:kind -> string -> string -> counter

type t

(** Every add in the process. *)
val process : t

(** The domain's current ledger ([None]: only {!process} counts). *)
val current : unit -> t option

(** [within l f] runs [f] with [l] current, restoring the previous
    ledger after, also when [f] raises. *)
val within : t option -> (unit -> 'a) -> 'a

(** A fresh ledger opened under the current one (else {!process}). *)
val create : unit -> t

(** [run f] runs [f] within a fresh ledger and returns that ledger. *)
val run : (unit -> 'a) -> 'a * t

val add : counter -> int -> unit
val add_float : counter -> float -> unit

(** A counter's value in a ledger (0 when never added to). *)
val get : t -> counter -> int

val get_float : t -> counter -> float

type value = Int of int | Float of float

(** A section's declared counters, in order, with their values
    ([Count]s as [Int]). *)
val fields : t -> string -> (string * value) list
