(** The one persistence primitive: the profile cache and the trace
    store's disk tier write checksummed entries through it.  Callers
    keep their own counters; this module only moves bytes.

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
    fires, truncates the committed file (a modelled torn write). *)

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
