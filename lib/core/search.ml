(* The fusion-configuration search — Main() of Fig. 6.

   For every thread-space partition (at granularity 128), generate the
   fused kernel and profile it twice: once as-is and once under the
   register bound r0 computed by {!Occupancy.register_bound}.  Keep the
   fastest (kernel, bound) pair seen.

   The search runs in two phases.  Phase 1 is serial: enumerate
   partitions, generate and verify the fused kernels, and compute the
   register bounds — this builds the candidate list in search order.
   Phase 2 hands the whole candidate list to the [profile] callback,
   which may evaluate it however it likes (the harness fans the pure
   timing runs out over a domain pool and consults a persistent cache;
   a per-candidate cost is a [List.map]).  The times come back in
   candidate order, so [best] tie-breaking — first strictly-fastest
   candidate in search order wins — is identical regardless of
   evaluation strategy.

   Profiling is a callback so the same algorithm runs against the cycle-
   level simulator (the harness), against synthetic cost functions
   (tests), or — in a deployment with real hardware — against nvcc+nvprof. *)

type config = { partition : Partition.t; reg_bound : int option }

(** One profiled candidate.  [repaired] marks provenance: the partition
    was first rejected by the verifier, then admitted by the repair
    engine (and its caller's differential soundness gate). *)
type candidate = {
  fused : Hfuse.t;
  config : config;
  time : float;
  repaired : bool;
}

type result = {
  best : candidate;
  all : candidate list;  (** every profiled candidate, search order *)
  rejected : (Partition.t * Hfuse_analysis.Diag.t list) list;
      (** partitions the fusion-safety verifier refused — and, when a
          [repair] callback ran, repair could not soundly fix — with
          their original diagnostics (never profiled) *)
  pruned : (Hfuse.t * config * float) list;
      (** verified candidates the phase-1.5 ranking cut before
          profiling (search order, with their model scores); empty
          unless both [rank] and [top_k] were given and binding *)
  scores : float list;
      (** model scores of the profiled candidates, aligned with [all];
          empty when no [rank] callback was supplied *)
  admitted : int;  (** partitions the verifier accepted directly *)
  repaired : int;  (** partitions admitted only via repair *)
}

(** What a [repair] callback hands back when it can fix a rejected
    partition: the repaired fused kernel (regenerated from transformed
    inputs) and the register bound the repair forces, if any. *)
type repair_outcome = { r_fused : Hfuse.t; r_reg_bound : int option }

exception No_valid_partition of string

(** [search ~profile ~d0 k1 k2] runs the Fig. 6 algorithm.

    [profile candidates] must return, in order, one running time (any
    unit, as long as it is consistent) per (fused kernel, config) pair,
    the kernel compiled/launched under the config's register bound.

    @param limits  SM resource limits used to compute the register bound
                   (default: the Pascal/Volta values the paper uses).
    @param rank    analytical cost model: scores for the whole verified
                   candidate list (lower is better, same order).  Scores
                   are recorded in the result; with [top_k] they drive
                   pruning.
    @param top_k   profile only the [top_k] best-scored candidates
                   (phase 1.5).  Requires [rank]; ignored without it.
                   Ties keep search order, the survivors are profiled in
                   search order, and a [top_k] at or above the candidate
                   count is a no-op — the search is then bit-identical
                   to the exhaustive one.
    @param d0      desired fused block dimension (paper default: 1024 for
                   tunable pairs; for fixed pairs the partition dictates
                   it and [d0] is ignored).
    @param repair  called on each verifier-rejected partition with the
                   configured kernels and the diagnostics; returning
                   [Some outcome] admits the (already re-verified and
                   soundness-gated) repaired fusion as a candidate with
                   [repaired = true], [None] keeps the rejection.
    @param on_reject  called once per finally-rejected partition (after
                   any [repair] attempt), in search order — the hook the
                   harness uses to build rejection histograms even when
                   every partition is rejected and the search raises.
    @raise No_valid_partition when the pair admits no thread-space
           partition (e.g. two fixed kernels whose sum exceeds 1024). *)
let search ?(limits = Occupancy.pascal_volta_limits)
    ?(rank : ((Hfuse.t * config) list -> float list) option)
    ?(top_k : int option)
    ?(repair :
       (k1:Kernel_info.t ->
       k2:Kernel_info.t ->
       Hfuse_analysis.Diag.t list ->
       repair_outcome option)
       option)
    ?(on_reject : (Partition.t -> Hfuse_analysis.Diag.t list -> unit) option)
    ?bodies ~(profile : (Hfuse.t * config) list -> float list) ~(d0 : int)
    (k1 : Kernel_info.t) (k2 : Kernel_info.t) : result =
  let partitions =
    Partition.enumerate
      ~max_threads:limits.Occupancy.max_threads_per_block k1 k2 ~d0
  in
  if partitions = [] then
    raise
      (No_valid_partition
         (Fmt.str "%s + %s admit no thread-space partition for d0 = %d"
            k1.fn.f_name k2.fn.f_name d0));
  (* phase 1 (serial): generate, verify, and collect the candidate
     configurations in search order *)
  let pending = ref [] in
  let rejected = ref [] in
  let admitted_n = ref 0 and repaired_n = ref 0 in
  let enqueue ?(repaired = false) fused config =
    pending := (fused, config, repaired) :: !pending
  in
  let reject partition ds =
    (match on_reject with Some f -> f partition ds | None -> ());
    rejected := (partition, ds) :: !rejected
  in
  (* the inputs are normalised once (by the caller, or where the first
     partition to pass the geometry checks needs them); every later
     partition fuses the same bodies (normalisation ignores the block
     dimension).  A plain ref: phase 1 runs on the calling domain only. *)
  let bodies = ref bodies in
  let normalized () =
    match !bodies with
    | Some b -> b
    | None ->
        let b = Hfuse.normalize k1 k2 in
        bodies := Some b;
        b
  in
  List.iter
    (fun ({ Partition.d1; d2 } as partition) ->
      let k1c = Kernel_info.with_block_dim k1 d1 in
      let k2c = Kernel_info.with_block_dim k2 d2 in
      (* the verifier gates profiling: an unsafe partition (deadlocking
         barriers, shared-memory races, over-budget resources) is
         recorded and never handed to the simulator *)
      match Hfuse.generate ~limits ~normalized k1c k2c with
      | exception Hfuse_analysis.Diag.Unsafe_fusion ds -> (
          (* the repair hook gets one shot at a rejected partition; its
             outcome must already be re-verified and soundness-gated,
             so a [Some] is admitted as-is (under the forced register
             bound) and a [None] keeps the rejection *)
          match repair with
          | None -> reject partition ds
          | Some f -> (
              match f ~k1:k1c ~k2:k2c ds with
              | Some o ->
                  incr repaired_n;
                  enqueue ~repaired:true o.r_fused
                    { partition; reg_bound = o.r_reg_bound }
              | None -> reject partition ds))
      | fused -> (
          incr admitted_n;
          (* line 8: the unbounded variant *)
          enqueue fused { partition; reg_bound = None };
          (* lines 13-17: compute r0 for the bounded variant *)
          let fused_smem = Kernel_info.smem_total (Hfuse.info fused) in
          match
            Occupancy.register_bound limits ~d1 ~regs1:k1.regs ~d2
              ~regs2:k2.regs ~fused_smem
          with
          | None -> ()
          | Some r0 when r0 >= fused.Hfuse.regs ->
              (* the bound would not constrain the kernel: the compiler
                 already uses fewer registers, so the bounded build is
                 byte-identical to the unbounded one — profiling it
                 again would double the simulator work to learn
                 nothing, and reporting [reg_bound = Some r0] would be
                 misleading.  The unbounded candidate above already
                 covers this configuration. *)
              ()
          | Some r0 -> enqueue fused { partition; reg_bound = Some r0 }))
    partitions;
  let rejected = List.rev !rejected in
  let pending = List.rev !pending in
  if pending = [] then
    raise
      (No_valid_partition
         (Fmt.str
            "%s + %s: the fusion-safety verifier rejected all %d \
             partition(s)"
            k1.fn.f_name k2.fn.f_name
            (List.length rejected)));
  (* phase 1.5: analytical ranking.  Scores are computed whenever the
     caller supplies a model (they are cheap and reported alongside the
     simulated times); pruning happens only under a binding [top_k] —
     keep the k best-scored candidates, break score ties in favour of
     search order, and preserve search order among the survivors so
     phase 2 and the [best] tie-breaking are unchanged. *)
  let n = List.length pending in
  let pairs_of ps = List.map (fun (fused, config, _) -> (fused, config)) ps in
  let scores =
    match rank with
    | None -> []
    | Some f ->
        let ss = f (pairs_of pending) in
        if List.length ss <> n then
          invalid_arg
            (Fmt.str
               "Search.search: rank returned %d score(s) for %d \
                candidate(s)"
               (List.length ss) n);
        ss
  in
  let pending, scores, pruned =
    match top_k with
    | Some k when scores <> [] && max 1 k < n ->
        let k = max 1 k in
        let sarr = Array.of_list scores in
        let order = Array.init n (fun i -> i) in
        Array.sort
          (fun i j ->
            match Float.compare sarr.(i) sarr.(j) with
            | 0 -> compare i j
            | c -> c)
          order;
        let keep = Array.make n false in
        Array.iteri (fun pos i -> if pos < k then keep.(i) <- true) order;
        let parr = Array.of_list pending in
        let kept = ref [] and kept_scores = ref [] and cut = ref [] in
        for i = n - 1 downto 0 do
          if keep.(i) then begin
            kept := parr.(i) :: !kept;
            kept_scores := sarr.(i) :: !kept_scores
          end
          else
            let fused, config, _ = parr.(i) in
            cut := (fused, config, sarr.(i)) :: !cut
        done;
        (!kept, !kept_scores, !cut)
    | _ -> (pending, scores, [])
  in
  (* phase 2: evaluate the surviving candidates in one call *)
  let times = profile (pairs_of pending) in
  if List.length times <> List.length pending then
    invalid_arg
      (Fmt.str
         "Search.search: profile returned %d time(s) for %d candidate(s)"
         (List.length times) (List.length pending));
  let all =
    List.map2
      (fun (fused, config, repaired) time ->
        { fused; config; time; repaired })
      pending times
  in
  let best =
    List.fold_left
      (fun best c -> if c.time < best.time then c else best)
      (List.hd all) (List.tl all)
  in
  {
    best;
    all;
    rejected;
    pruned;
    scores;
    admitted = !admitted_n;
    repaired = !repaired_n;
  }

(** The Naive variant of the evaluation: even partition, no profiling,
    no register bound. *)
let naive ~(d0 : int) (k1 : Kernel_info.t) (k2 : Kernel_info.t) :
    Hfuse.t option =
  match Partition.naive k1 k2 ~d0 with
  | None -> None
  | Some { Partition.d1; d2 } ->
      let k1c = Kernel_info.with_block_dim k1 d1 in
      let k2c = Kernel_info.with_block_dim k2 d2 in
      Some (Hfuse.generate k1c k2c)
