(** Structured diagnostics produced by the fusion-safety {!Verifier}.

    [Error] means the fused kernel is unsafe to launch (deadlock, data
    race, or unschedulable block); [Warning] means the analysis cannot
    prove safety but the pattern is one real kernels legitimately use. *)

type severity = Error | Warning

type kind =
  | Barrier_id_out_of_range of { id : int; count : int }
      (** [bar.sync id] with id outside 1..15 *)
  | Barrier_count_unaligned of { id : int; count : int }
      (** barrier thread count not a positive multiple of the warp size *)
  | Barrier_count_mismatch of { id : int; count : int; expected : int }
      (** barrier count inconsistent with its sub-kernel's partition *)
  | Barrier_id_collision of { id : int; label1 : string; label2 : string }
      (** two fused sides use the same hardware barrier id *)
  | Full_barrier_in_partition of { label : string }
      (** [__syncthreads()] inside a side that owns only part of the
          block — the other side's threads never arrive: deadlock *)
  | Divergent_barrier of { id : int option; label : string }
      (** barrier under a thread-dependent condition; [id = None] for a
          full [__syncthreads()] *)
  | Shared_overlap of {
      name1 : string;
      label1 : string;
      name2 : string;
      label2 : string;
    }  (** the two sides' shared-memory regions overlap *)
  | Shared_race of { label : string; array : string; write_write : bool }
      (** shared-array accesses that may race (not barrier-separated) *)
  | Over_budget of { resource : Limits.limiter; required : int; available : int }
      (** the fused kernel exceeds a hardware resource limit *)

type t = { severity : severity; kind : kind; detail : string }

exception Unsafe_fusion of t list

val error : kind -> string -> t
val warning : kind -> string -> t
val is_error : t -> bool
val errors : t list -> t list

(** No [Error]-severity diagnostics (warnings allowed). *)
val is_clean : t list -> bool

(** Raise {!Unsafe_fusion} with all diagnostics when any is an error. *)
val raise_if_unsafe : t list -> unit

(** Stable machine-parsable kebab-case tag for a diagnostic kind
    (e.g. ["shared-race"]).  Used by report lines, the repair engine's
    strategy table and the rejection histograms; the vocabulary is a
    wire format — do not rename tags. *)
val kind_tag : kind -> string

(** Every tag {!kind_tag} can produce, in declaration order. *)
val all_kind_tags : string list

val pp : t Fmt.t

(** Multi-line report, errors first, each line tagged with its kind
    ([error[shared-race]: <detail>]), with a closing verdict line. *)
val pp_report : t list Fmt.t

val report_to_string : t list -> string
