(* Analytical cost model for ranking fusion candidates without
   simulating them — the phase-1.5 pruning step of the search.

   The paper's Fig. 6 search profiles every enumerated partition; for
   the interactive use cases in the roadmap that is the dominant cost
   (every candidate is a full cycle-level simulation).  Following the
   observation in Filipovič et al. that a cheap analytical performance
   model ranks fusion candidates well enough to validate only the
   leaders, this module scores a candidate from static inputs only:

   - per-kernel instruction mixes from {!Hfuse_core.Analyzer} (the
     latency-weighted summaries the affinity triage already trusts),
   - the candidate's partition, register estimate, shared memory and
     register bound (all known before simulation),
   - residency from {!Hfuse_core.Occupancy.blocks_per_sm}, and
   - per-architecture latencies/throughputs from {!Gpusim.Arch}.

   The model is a classical bound-and-max roofline over three per-SM
   time bounds, in cycles:

     T_issue : issue-bandwidth bound.  Every instruction costs issue
               slots (fp32 scaled by [fp32_units_factor], divisions by
               [sfu_throughput], memory ops by [lsu_throughput]) and the
               SM issues from [schedulers_per_sm] schedulers.  The
               per-candidate work totals are fixed by the pair, so this
               bound is constant across candidates — it matters only as
               a floor that keeps latency differences from being
               over-rewarded once the SM is throughput-saturated.

     T_mem   : DRAM-bandwidth bound: global transactions (loads, stores,
               read-modify-write atomics twice) times the SM's
               [gmem_cyc_per_txn] share.  Also candidate-invariant.

     T_lat   : the latency-hiding bound, the term the search actually
               discriminates on.  Each kernel's threads carry a
               dependent-latency chain (global loads overlapped up to
               [load_slots], shared/SFU/ALU ops partially overlapped by
               ILP); an SM hosts [b * d_i] resident threads of kernel i,
               so the chain is exposed once per "wave" of
               [work_i / (b * d_i)] refills.  Occupancy-starved
               candidates (small [b], lopsided [d_i]) take more waves
               and score worse — monotonically, which the tests pin
               down.  A register bound below the kernel's estimate
               spills the difference to local memory and lengthens the
               chain by [spill * lmem_latency] per wave.

   A candidate whose configuration cannot run at all (zero resident
   blocks) scores infinite.  Absolute scale is irrelevant for ranking,
   so no scale is fitted: [Runner.model_eval] measures model quality —
   rank agreement and regret — from the score order against simulated
   times, and the bench gates it. *)

open Hfuse_core

type inputs = {
  arch : Gpusim.Arch.t;
  limits : Occupancy.sm_limits;
  mix1 : Analyzer.mix;
  mix2 : Analyzer.mix;
  work1 : int;  (** kernel 1 total threads at its native launch *)
  work2 : int;
  native1 : Kernel_info.t;
  native2 : Kernel_info.t;
  cal1 : float;  (** kernel 1 cost multiplier from {!calibrate} (1 = raw) *)
  cal2 : float;
  probe : probe_model option;
      (** empirical per-pair shape from {!calibrate_probes} *)
}

(* Empirical time-vs-partition shapes fitted from profiled probe
   candidates.  Each family (the unbounded candidates; the candidates
   capped at one spilling register bound) gets its own fit — a
   residency-invariant floor plus one latency hyperbola per side, the
   candidate's time being [floor + max_i (l_i / (b * d_i))] — because
   a register cap changes the physics wholesale: residency doubles,
   spill traffic inflates the throughput floor and lengthens the
   chains, and the two sides' domination crossover moves.  [p_times]
   holds the probes' own observed times: a probed candidate is scored
   at ground truth, never at a fit of itself. *)
and probe_model = {
  p_unb : family;
  p_capped : (int * family) list;
      (* keyed by the spilling register bound *)
  p_times : ((Partition.t * int option) * float) list;
}

and family = { f_floor : float; f_l1 : float; f_l2 : float }

let of_pair ?limits ~(arch : Gpusim.Arch.t) (k1 : Kernel_info.t)
    (k2 : Kernel_info.t) : inputs =
  let limits =
    match limits with Some l -> l | None -> Gpusim.Arch.sm_limits arch
  in
  {
    arch;
    limits;
    mix1 = Analyzer.analyze_fn k1.fn;
    mix2 = Analyzer.analyze_fn k2.fn;
    work1 = k1.grid * Kernel_info.threads_per_block k1;
    work2 = k2.grid * Kernel_info.threads_per_block k2;
    native1 = k1;
    native2 = k2;
    cal1 = 1.;
    cal2 = 1.;
    probe = None;
  }

(* -- per-thread features of one kernel's mix ------------------------- *)

(* Issue slots one thread's instructions consume (arbitrary but
   arch-consistent unit). *)
let issue_cost (a : Gpusim.Arch.t) (m : Analyzer.mix) : float =
  float_of_int
    (m.int_ops
    + (m.float_ops * a.fp32_units_factor)
    + (m.div_ops * a.sfu_throughput)
    + ((m.global_loads + m.global_stores + m.shared_ops + m.atomics)
      * a.lsu_throughput)
    + m.shuffles + m.barriers)

(* Global 32-byte transactions one thread generates (atomics are a
   read-modify-write round trip). *)
let mem_txns (m : Analyzer.mix) : float =
  float_of_int (m.global_loads + m.global_stores + (2 * m.atomics))

(* Atomics to a small table (the histogram pattern) collide within a
   warp and the colliding lanes serialize, so one atomic's exposed
   latency is several round trips, not one.  A fixed pessimistic
   contention of warp_size/4 lanes per address matches the simulator's
   read-modify-write replay behaviour closely enough for ranking. *)
let atomic_contention (a : Gpusim.Arch.t) : int = max 1 (a.warp_size / 4)

(* Dependent-latency chain one thread exposes per residency wave:
   global loads overlap up to the scoreboard's [load_slots], shared
   and ALU traffic is mostly hidden by ILP, SFU sequences are serial,
   and atomics serialize further under intra-warp contention. *)
let latency_chain (a : Gpusim.Arch.t) (m : Analyzer.mix) : float =
  let f = float_of_int in
  (f (m.global_loads * a.gmem_latency) /. f (max 1 a.load_slots))
  +. (f (m.shared_ops * a.smem_latency) /. 4.)
  +. f (m.div_ops * a.sfu_latency)
  +. f (m.atomics * a.gmem_latency * atomic_contention a)
  +. f (m.shuffles * a.shfl_latency)
  +. f (m.barriers * a.smem_latency)
  +. (f ((m.int_ops + m.float_ops) * a.alu_latency) /. 8.)

(* -- the candidate score --------------------------------------------- *)

(* Total instructions one thread executes — the base rate for the
   engine's deterministic spill injection (one local round trip every
   [Gpusim.Timing.spill_interval spill] instructions). *)
let instr_total (m : Analyzer.mix) : int =
  m.int_ops + m.float_ops + m.div_ops + m.global_loads + m.global_stores
  + m.shared_ops + m.atomics + m.shuffles + m.barriers

(* Tie-break weight: when several candidates sit under the same
   throughput floor, prefer the one exposing the least latency — the
   simulator rewards headroom (tail effects, stall overlap) in the
   same direction. *)
let latency_tiebreak = 1. /. 16.

(* One kernel's share of a launch: its mix, total threads, per-block
   thread count, and the calibration multiplier applied to every one of
   its cost terms (a pure work-magnitude correction, see {!calibrate}). *)
type side = { mix : Analyzer.mix; work : float; d : int; cal : float }

(* Roofline with a latency tie-break, over the sides resident together
   on the SM with [b] blocks each.  The throughput bounds are per-SM
   pipe totals: independent of the partition AND of the residency [b]
   (halving blocks per SM doubles the rounds but halves each round's
   pipe time), so they form a floor the candidate cannot beat.  The
   latency term is the only [b]- and partition-dependent part.  A pure
   max() would flatten every candidate under the floor into one
   plateau, so a small multiple of the latency term is added back:
   among floor-bound candidates the model prefers the one with the most
   latency headroom, which is also where the simulator's second-order
   effects (tails, stall overlap) point. *)
let roofline (a : Gpusim.Arch.t) ~(b : int) ~(spill_frac : float)
    (sides : side list) : float =
  let f = float_of_int in
  let sms = f (max 1 a.sms) in
  (* issue-bandwidth bound, plus the spill pairs' issue slots (memory
     class: two slots each) *)
  let t_issue =
    List.fold_left
      (fun acc s ->
        acc
        +. s.cal *. s.work
           *. (issue_cost a s.mix
              +. (spill_frac *. f (instr_total s.mix) *. 4.)))
      0. sides
    /. (sms *. f (max 1 a.schedulers_per_sm) *. f a.warp_size)
  in
  let t_mem =
    List.fold_left (fun acc s -> acc +. (s.cal *. s.work *. mem_txns s.mix)) 0.
      sides
    *. f a.gmem_cyc_per_txn
    /. (sms *. f a.warp_size)
  in
  (* spilled reloads lengthen each thread's dependency chain: one
     local-memory latency (overlapped like any load) plus LD/ST
     occupancy per injected pair *)
  let spill_chain i =
    spill_frac *. i
    *. ((f a.lmem_latency /. f (max 1 a.load_slots))
       +. f (2 * a.lsu_throughput))
  in
  let t_lat =
    List.fold_left
      (fun acc s ->
        (* the chain is exposed once per residency wave of this side *)
        let chain =
          latency_chain a s.mix +. spill_chain (f (instr_total s.mix))
        in
        let waves = s.work /. (sms *. f (b * s.d)) in
        Float.max acc (s.cal *. waves *. chain))
      0. sides
  in
  Float.max t_lat (Float.max t_issue t_mem) +. (latency_tiebreak *. t_lat)

(* How much a register cap lengthens side [mix]'s dependency chain,
   as a multiplier (1 = no spill).  A pure ratio of static terms, so
   it composes with the empirically calibrated chains too. *)
let spill_mult (a : Gpusim.Arch.t) ~(spill_frac : float) (mix : Analyzer.mix) :
    float =
  if spill_frac <= 0. then 1.
  else
    let f = float_of_int in
    let chain = latency_chain a mix in
    let extra =
      spill_frac
      *. f (instr_total mix)
      *. ((f a.lmem_latency /. f (max 1 a.load_slots))
         +. f (2 * a.lsu_throughput))
    in
    if chain > 0. then 1. +. (extra /. chain) else 1.

let score (inp : inputs) ~(fused : Hfuse.t) ~(config : Search.config) :
    float =
  let a = inp.arch in
  let { Partition.d1; d2 } = config.Search.partition in
  let d0 = d1 + d2 in
  let regs = fused.Hfuse.regs in
  let eff_regs =
    match config.Search.reg_bound with
    | Some r -> min r regs
    | None -> regs
  in
  let spill = regs - eff_regs in
  let smem = Kernel_info.smem_total (Hfuse.info fused) in
  let b =
    Occupancy.blocks_per_sm inp.limits ~regs:eff_regs ~threads:d0 ~smem
  in
  if b <= 0 then Float.infinity
  else
    (* the engine injects one local store + reload pair every
       [spill_interval] instructions; [spill_frac] is the injected
       fraction of extra instructions per thread *)
    let spill_frac =
      if spill <= 0 then 0.
      else 2. /. float_of_int (Gpusim.Timing.spill_interval spill)
    in
    match inp.probe with
    | Some p -> (
        (* Probe-calibrated path.  A probed candidate is scored at its
           own observed time.  Otherwise each side's exposed latency is
           a hyperbola [l_i / (b * d_i)] pinned by the probes of the
           candidate's own family (per-thread work scales with dn_i/d_i
           under the fixed-grid retuning, so the coefficient is
           partition-invariant), on top of that family's
           residency-invariant floor.  A spilling candidate whose
           register bound has no fitted family falls back to the
           unbounded fit with the static per-mix spill multiplier. *)
        let key = (config.Search.partition, config.Search.reg_bound) in
        match List.assoc_opt key p.p_times with
        | Some t -> t
        | None -> (
            let eval fam =
              fam.f_floor
              +. Float.max
                   (fam.f_l1 /. float_of_int (b * d1))
                   (fam.f_l2 /. float_of_int (b * d2))
            in
            if spill <= 0 then eval p.p_unb
            else
              match
                Option.bind config.Search.reg_bound (fun r ->
                    List.assoc_opt r p.p_capped)
              with
              | Some fam -> eval fam
              | None ->
                  p.p_unb.f_floor
                  +. Float.max
                       (p.p_unb.f_l1
                       *. spill_mult a ~spill_frac inp.mix1
                       /. float_of_int (b * d1))
                       (p.p_unb.f_l2
                       *. spill_mult a ~spill_frac inp.mix2
                       /. float_of_int (b * d2))))
    | None ->
        roofline a ~b ~spill_frac
          [
            {
              mix = inp.mix1;
              work = float_of_int inp.work1;
              d = d1;
              cal = inp.cal1;
            };
            {
              mix = inp.mix2;
              work = float_of_int inp.work2;
              d = d2;
              cal = inp.cal2;
            };
          ]

(* Uncalibrated prediction of one kernel's solo elapsed time at its
   native launch — the denominator of {!calibrate}'s correction
   ratio. *)
let solo_predict (inp : inputs) (info : Kernel_info.t) (mix : Analyzer.mix)
    (work : int) : float =
  let d = Kernel_info.threads_per_block info in
  let smem = Kernel_info.smem_total info in
  let b = Occupancy.blocks_per_sm inp.limits ~regs:info.regs ~threads:d ~smem in
  if b <= 0 then Float.infinity
  else
    roofline inp.arch ~b ~spill_frac:0.
      [ { mix; work = float_of_int work; d; cal = 1. } ]

let calibrate (inp : inputs) ~(solo1 : float) ~(solo2 : float) : inputs =
  (* The static mixes come from loop-weight guesses, so each kernel's
     absolute per-thread cost — and hence the RATIO between the two
     kernels, which is what the partition ranking hinges on — can be
     off by integer factors.  One observed solo run per kernel pins the
     magnitude down: the correction is observed / predicted, applied as
     a pure multiplier on every cost term of that kernel's side (a
     trip-count error inflates issue slots, transactions and latency
     chains alike).  An unusable ratio (non-finite or non-positive on
     either side) leaves that side uncalibrated. *)
  let cal_of pred obs =
    if Float.is_finite pred && pred > 0. && Float.is_finite obs && obs > 0.
    then obs /. pred
    else 1.
  in
  {
    inp with
    cal1 = cal_of (solo_predict inp inp.native1 inp.mix1 inp.work1) solo1;
    cal2 = cal_of (solo_predict inp inp.native2 inp.mix2 inp.work2) solo2;
  }

(* A probe group's extremes by d1 (the first candidate wins a tie) and
   the member nearest their middle (the earliest non-extreme wins a tie;
   [None] when every member is an extreme).  [group] is non-empty. *)
let extremes_and_mid (group : (Hfuse.t * Search.config) list) =
  let d1_of ((_, cfg) : Hfuse.t * Search.config) =
    cfg.Search.partition.Partition.d1
  in
  let first = List.hd group in
  let lo, hi =
    List.fold_left
      (fun (mn, mx) c ->
        ( (if d1_of c < d1_of mn then c else mn),
          if d1_of c > d1_of mx then c else mx ))
      (first, first) group
  in
  let target = (d1_of lo + d1_of hi) / 2 in
  let mid =
    List.fold_left
      (fun best c ->
        if c == lo || c == hi then best
        else
          match best with
          | Some b when abs (d1_of b - target) <= abs (d1_of c - target) ->
              best
          | _ -> Some c)
      None group
  in
  (lo, mid, hi)

type probes = {
  lo : Hfuse.t * Search.config;
  mid : (Hfuse.t * Search.config) option;
  hi : Hfuse.t * Search.config;
  capped : (Hfuse.t * Search.config) list;
}

(* The unbounded candidates' extremes and middle (minimal d1 starves
   kernel 1, maximal d1 starves kernel 2, the middle pins the
   residency-invariant floor), then per spilling register bound, in
   increasing order, that group's extremes and middle: only candidates
   whose bound actually forces spilling reveal the capped physics.  A
   group of one is probed once. *)
let pick_probes (candidates : (Hfuse.t * Search.config) list) : probes option
    =
  let spilling_bound ((f, cfg) : Hfuse.t * Search.config) =
    match cfg.Search.reg_bound with
    | Some r when f.Hfuse.regs > r -> Some r
    | _ -> None
  in
  match
    List.filter
      (fun ((_, cfg) : Hfuse.t * Search.config) -> cfg.Search.reg_bound = None)
      candidates
  with
  | _ :: _ :: _ as unbounded ->
      let lo, mid, hi = extremes_and_mid unbounded in
      let capped =
        List.sort_uniq compare (List.filter_map spilling_bound candidates)
        |> List.concat_map (fun r ->
               let glo, gmid, ghi =
                 extremes_and_mid
                   (List.filter (fun c -> spilling_bound c = Some r) candidates)
               in
               (glo :: Option.to_list gmid) @ if ghi == glo then [] else [ ghi ])
      in
      Some { lo; mid; hi; capped }
  | _ -> None

let calibrate_probes (inp : inputs) ~(lo : (Hfuse.t * Search.config) * float)
    ?(mid : ((Hfuse.t * Search.config) * float) option)
    ?(capped : ((Hfuse.t * Search.config) * float) list = [])
    ~(hi : (Hfuse.t * Search.config) * float) () : inputs =
  (* [lo]/[hi] are profiled UNBOUNDED candidates at the extremes of the
     partition range ([lo] starves kernel 1 with minimal d1, [hi]
     starves kernel 2), [mid] one near the middle; [capped] holds
     profiled register-bounded candidates, ideally the extremes and a
     middle of each spilling bound's group.  Within a family, each
     extreme pins the hyperbola of the side it starves and the middle
     probe pins the residency-invariant floor — a fixed point of
     [floor = t_mid - max of the floor-adjusted hyperbolas], which is a
     contraction because the extreme-to-middle residency ratios are
     below one.  Missing probes degrade gracefully: no middle means
     floor 0; a spilling bound with fewer than two usable probes gets
     no family and its candidates use the static spill multiplier.  An
     unusable unbounded extreme (failed profile, zero residency, a
     register bound after all) disables the probe path entirely and
     {!score} stays on the static roofline. *)
  let f = float_of_int in
  let geometry ?(bounded = false) ((fused, config) : Hfuse.t * Search.config)
      (t : float) : (int * int * int * float) option =
    let { Partition.d1; d2 } = config.Search.partition in
    let regs = fused.Hfuse.regs in
    let eff_regs =
      match config.Search.reg_bound with
      | Some r when bounded -> min r regs
      | _ -> regs
    in
    let b =
      Occupancy.blocks_per_sm inp.limits ~regs:eff_regs ~threads:(d1 + d2)
        ~smem:(Kernel_info.smem_total (Hfuse.info fused))
    in
    if
      (if bounded then config.Search.reg_bound <> None
       else config.Search.reg_bound = None)
      && b > 0 && Float.is_finite t && t > 0.
    then Some (d1, d2, b, t)
    else None
  in
  (* fit one family's floor + per-side hyperbolas from its extreme
     probes and (optionally) a middle one *)
  let fit_family ~(glo : int * int * int * float)
      ~(gmid : (int * int * int * float) option)
      ~(ghi : int * int * int * float) : family =
    let d1_lo, _, b_lo, t_lo = glo and _, d2_hi, b_hi, t_hi = ghi in
    let floor =
      match gmid with
      | Some (d1_m, d2_m, b_m, t_m) ->
          let r1 = f (b_lo * d1_lo) /. f (b_m * d1_m) in
          let r2 = f (b_hi * d2_hi) /. f (b_m * d2_m) in
          let rec fix fl n =
            let lat = Float.max ((t_lo -. fl) *. r1) ((t_hi -. fl) *. r2) in
            let fl' = Float.max 0. (t_m -. lat) in
            if n = 0 || Float.abs (fl' -. fl) < 1e-12 then fl'
            else fix fl' (n - 1)
          in
          fix 0. 30
      | None -> 0.
    in
    {
      f_floor = floor;
      f_l1 = Float.max 0. (t_lo -. floor) *. f (b_lo * d1_lo);
      f_l2 = Float.max 0. (t_hi -. floor) *. f (b_hi * d2_hi);
    }
  in
  let cand_lo, t_lo = lo and cand_hi, t_hi = hi in
  match (geometry cand_lo t_lo, geometry cand_hi t_hi) with
  | None, _ | _, None -> { inp with probe = None }
  | Some glo, Some ghi ->
      let gmid = Option.bind mid (fun (c, t) -> geometry c t) in
      let p_unb = fit_family ~glo ~gmid ~ghi in
      (* group the capped probes by their (spilling) register bound and
         fit a family per group that has at least two usable probes *)
      let groups : (int, ((int * int * int * float) * int) list ref) Hashtbl.t
          =
        Hashtbl.create 4
      in
      List.iter
        (fun (((fused, config) as cand), t) ->
          match config.Search.reg_bound with
          | Some r when fused.Hfuse.regs > r -> (
              match geometry ~bounded:true cand t with
              | Some ((d1, _, _, _) as g) ->
                  let cell =
                    match Hashtbl.find_opt groups r with
                    | Some cell -> cell
                    | None ->
                        let cell = ref [] in
                        Hashtbl.add groups r cell;
                        cell
                  in
                  cell := (g, d1) :: !cell
              | None -> ())
          | _ -> ())
        capped;
      let p_capped =
        Hashtbl.fold
          (fun r cell acc ->
            let probes =
              List.sort
                (fun ((_, _, _, _), d1a) ((_, _, _, _), d1b) ->
                  compare d1a d1b)
                !cell
            in
            match probes with
            | [] | [ _ ] -> acc
            | (first, d1_first) :: rest ->
                let (last, d1_last), middle =
                  let rec split acc_mid = function
                    | [ l ] -> (l, List.rev acc_mid)
                    | x :: tl -> split (x :: acc_mid) tl
                    | [] -> assert false
                  in
                  split [] rest
                in
                let gmid =
                  let target = (d1_first + d1_last) / 2 in
                  List.fold_left
                    (fun best (g, d1) ->
                      match best with
                      | Some (_, d1b) when abs (d1b - target) <= abs (d1 - target)
                        ->
                          best
                      | _ -> Some (g, d1))
                    None middle
                  |> Option.map fst
                in
                (r, fit_family ~glo:first ~gmid ~ghi:last) :: acc)
          groups []
      in
      let p_times =
        List.filter_map
          (fun (((_, config) : Hfuse.t * Search.config), t) ->
            if Float.is_finite t && t > 0. then
              Some ((config.Search.partition, config.Search.reg_bound), t)
            else None)
          ((lo :: hi :: Option.to_list mid) @ capped)
      in
      { inp with probe = Some { p_unb; p_capped; p_times } }

let rank (inp : inputs) (candidates : (Hfuse.t * Search.config) list) :
    float list =
  List.map (fun (fused, config) -> score inp ~fused ~config) candidates

(* Default pruning window: simulate the model's 6 best-ranked
   candidates.  Wide enough that the corpus-wide regret gate holds (the
   bench gate enforces it; the tightest pair needs rank 6), narrow
   enough that a pruned search still skips a meaningful share of the
   sweep on top of the probes it already paid for. *)
let default_top_k = 6
