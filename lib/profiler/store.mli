(** The one persistence primitive: the profile cache, the trace store's
    disk tier, the checkpoint journal and the fleet row journal all
    write through it.  Callers keep their own counters; this module
    only moves bytes.

    {1 Checksummed entries}

    One file per key, [<dir>/<key>]:

    {v
<magic> <version> <md5-hex of payload>\n
<payload bytes, verbatim>
    v}

    A write goes to a unique temp file ([<key>.tmp.<pid>.<seq>]) and is
    renamed over the entry, so no reader — in this process or another
    sharing the directory — sees a half-written entry.  The checksum
    catches what rename cannot: a crash that left a truncated file, bit
    rot, a partial copy.  An entry whose header, checksum or decode
    fails moves to [<parent of dir>/quarantine/<key>] and reads as
    {!Corrupt}; the caller recomputes and re-stores it, so damage can
    slow a run down but never change its result.  With a fault plan
    enabled, each commit draws [cache_corrupt] from the key and, when it
    fires, truncates the committed file (a modelled torn write).

    {1 Append-only journal}

    One record per line, flushed as written:

    {v
# <free-form header, ignored on load>
<md5-hex of escaped payload> <escaped payload>\n
    v}

    Escaping makes a record one line: a backslash, a newline and a NUL
    become the two-byte sequences backslash-backslash, backslash-n and
    backslash-z, so a payload without those bytes is written verbatim.
    A kill can only tear the line being written; loading drops any line
    whose digest fails (torn tail, garbled line) and counts it. *)

(** [mkdir -p]; EEXIST from a racing creator is success. *)
val mkdir_p : string -> unit

(** A directory of checksummed entries. *)
type t

(** Entries under [dir] with header [<magic> <version>].  [fault]
    is the chaos plan for the corruption draws; [None] injects nothing. *)
val create :
  magic:string -> version:string -> fault:Hfuse_fault.Fault.plan option ->
  string -> t

val dir : t -> string

type 'a read = Absent | Corrupt | Found of 'a

(** Read, verify and [decode] (raising on malformed input) one entry. *)
val read : t -> key:string -> (string -> 'a) -> 'a read

(** Commit one entry, then apply the chaos hook. *)
val write : t -> key:string -> string -> unit

module Journal : sig
  type t

  (** Open [path] for appending, creating its directory, and load it:
      the verified payloads in file order and the number of torn
      lines.  [header] goes in as a [#] line when the file is new or
      empty; a torn last line is ended first, so new records start a
      line of their own. *)
  val open_ : header:string option -> string -> t * string list * int

  (** Append one record and flush it. *)
  val append : t -> string -> unit

  val flush : t -> unit

  (** Flush and close; never raises. *)
  val close : t -> unit
end
