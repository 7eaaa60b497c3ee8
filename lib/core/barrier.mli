(** Synchronisation-barrier replacement (Fig. 5, lines 5-6).

    [__syncthreads()] inside a fused kernel would wait for the other
    kernel's threads too — deadlock.  HFuse rewrites each barrier into
    the partial PTX barrier [bar.sync id, count], which synchronises
    exactly [count] threads on hardware barrier [id]. *)

exception Invalid_barrier of string

(** Replace every [__syncthreads()] with [bar.sync id, count].
    Pre-existing [bar.sync] statements (re-fusing an already fused
    kernel) pass through untouched.

    @raise Invalid_barrier when [id] is outside 1..15 or [count] is not
    a positive warp-size multiple. *)
val replace : id:int -> count:int -> Cuda.Ast.stmt list -> Cuda.Ast.stmt list

(** Barrier ids already claimed by [bar.sync] statements. *)
val used_ids : Cuda.Ast.stmt list -> int list

(** First id in 1..15 not in the list.
    @raise Invalid_barrier when all 15 are taken. *)
val fresh_id : int list -> int
