(* The paper's evaluation (Section IV), experiment by experiment:

   - Figure 7: speedup vs execution-time ratio for all 16 benchmark
     pairs, comparing HFuse, VFuse and (for deep-learning pairs) the
     Naive even partition, on both GPU models.
   - Figure 8: metrics of the 9 individual kernels at representative
     workloads whose pairwise execution-time ratios are close to one.
   - Figure 9: metrics of the 16 HFuse fused kernels, with and without
     the register bound.

   Every figure runs in two phases.  Phase 1 walks the pairs in order:
   configuration and the Fig. 6 searches, each fanning its recordings
   and replays over the shared [Hfuse_parallel.Pool]; measurement
   replays are only *described*, as (arch, launch-spec list) entries on
   a run list.  Phase 2 fans those replays over the same pool
   ([Runner.run_many], order-preserving).  Every recording runs in a
   fresh memory holding only its keyed workload, so traces are pure
   functions of their keys wherever they are recorded, and every figure
   is bit-identical for any [jobs]. *)

open Gpusim
open Kernel_corpus

(* ------------------------------------------------------------------ *)
(* Representative workloads                                             *)
(* ------------------------------------------------------------------ *)

(** Pick per-kernel sizes so solo execution times land close to a common
    target (the paper: "we select a representative input size so that
    the execution time ratios of the benchmark pairs are close to one",
    Section IV-A).  Assumes work scales ~linearly with [size], which
    holds for the whole corpus (spatial width or hash iterations).  The
    solo replays resolve through the report tiers, so a warm process or
    cache root answers without simulating. *)
let representative_sizes ?settings ?pool ?cache ?checkpoint (arch : Arch.t)
    : (string * int) list =
  let settings =
    match settings with Some s -> s | None -> Settings.resolve ()
  in
  let mem = Memory.create () in
  (* configure+trace each kernel in registry order, then replay pooled *)
  let prepped =
    List.map
      (fun (s : Spec.t) ->
        let c = Runner.configure mem s ~size:s.default_size in
        (s, (arch, [ Runner.spec_of ~settings c ~stream:0 () ])))
      Registry.all
  in
  let reports =
    Runner.run_many ?pool ~settings ?cache ?checkpoint
      (Array.of_list (List.map snd prepped))
  in
  let timed =
    List.mapi (fun i (s, _) -> (s, reports.(i).Timing.time_ms)) prepped
  in
  let times = List.map snd timed |> List.sort compare in
  let target = List.nth times (List.length times / 2) in
  List.map
    (fun ((s : Spec.t), t) ->
      let scaled =
        int_of_float
          (Float.round (float_of_int s.default_size *. target /. t))
      in
      (s.name, max 1 scaled))
    timed

let size_of sizes (s : Spec.t) =
  match List.assoc_opt s.name sizes with Some n -> n | None -> s.default_size

(* Explicit sizes win; the probe runs only when one is missing, so a
   request that pins both (the fleet driver always does) never pays
   for it. *)
let pair_sizes ~settings ~cache ~checkpoint (arch : Arch.t)
    ((s1, size1) : Spec.t * int option) ((s2, size2) : Spec.t * int option) :
    int * int =
  match (size1, size2) with
  | Some n1, Some n2 -> (n1, n2)
  | _ ->
      let sizes = representative_sizes ~settings ~cache ~checkpoint arch in
      ( Option.value size1 ~default:(size_of sizes s1),
        Option.value size2 ~default:(size_of sizes s2) )

(* A run list under construction: phase 1 pushes (arch, specs) entries
   and remembers their indices into the phase-2 report array. *)
type runlist = {
  mutable rl_rev : (Arch.t * Timing.launch_spec list) list;
  mutable rl_n : int;
}

let runlist () = { rl_rev = []; rl_n = 0 }

let push rl entry =
  rl.rl_rev <- entry :: rl.rl_rev;
  rl.rl_n <- rl.rl_n + 1;
  rl.rl_n - 1

let runs_of rl = Array.of_list (List.rev rl.rl_rev)

(* ------------------------------------------------------------------ *)
(* Figure 7: ratio sweeps                                               *)
(* ------------------------------------------------------------------ *)

type point = {
  size1 : int;
  size2 : int;
  ratio : float;  (** solo time of kernel 1 / solo time of kernel 2 *)
  native_ms : float;
  hfuse_ms : float;
  hfuse_d1 : int;
  hfuse_d2 : int;
  hfuse_reg_bound : int option;
  vfuse_ms : float option;  (** [None] when vertical fusion is illegal *)
  naive_ms : float option;  (** even partition; deep-learning pairs only *)
}

let speedup ~native ~fused = 100.0 *. ((native /. fused) -. 1.0)

type sweep = {
  pair : Spec.t * Spec.t;
  arch : Arch.t;
  varied_first : bool;  (** the paper stars the kernel whose size varies *)
  points : point list;
}

let avg xs =
  match xs with
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let avg_hfuse_speedup (s : sweep) =
  avg
    (List.map (fun p -> speedup ~native:p.native_ms ~fused:p.hfuse_ms) s.points)

let avg_vfuse_speedup (s : sweep) =
  avg
    (List.filter_map
       (fun p ->
         Option.map
           (fun v -> speedup ~native:p.native_ms ~fused:v)
           p.vfuse_ms)
       s.points)

let default_multipliers = [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

(** Sweep one pair on one arch: vary the first kernel's size over
    [multipliers] x its representative size.  [jobs]/[pool]/[settings]/
    [cache] are passed through to {!Runner.search} and the measurement
    fan-out. *)
let sweep_pair ?(multipliers = default_multipliers) ?jobs ?pool ~settings
    ?cache ?checkpoint ?top_k (arch : Arch.t)
    (sizes : (string * int) list) ((s1, s2) : Spec.t * Spec.t) : sweep =
  let mem = Memory.create () in
  let base1 = size_of sizes s1 and size2 = size_of sizes s2 in
  let rl = runlist () in
  (* phase 1: configure, trace and search each point in order *)
  let prepped =
    List.map
      (fun m ->
        let size1 =
          max 1 (int_of_float (Float.round (float_of_int base1 *. m)))
        in
        let c1 = Runner.configure mem s1 ~size:size1 in
        let c2 = Runner.configure mem s2 ~size:size2 in
        let spec c = Runner.spec_of ~settings c in
        let i1 = push rl (arch, [ spec c1 ~stream:0 () ]) in
        let i2 = push rl (arch, [ spec c2 ~stream:0 () ]) in
        let inat =
          push rl (arch, [ spec c1 ~stream:0 (); spec c2 ~stream:1 () ])
        in
        let sr =
          Runner.search ?jobs ?pool ~settings ?cache ?checkpoint ?top_k
            arch c1 c2
        in
        let best = sr.Hfuse_core.Search.best in
        let ivf =
          match Runner.vfuse_generate c1 c2 with
          | v -> Some (push rl (arch, [ Runner.vfuse_spec ~settings c1 c2 v ]))
          | exception Hfuse_core.Fuse_common.Fusion_error _ -> None
        in
        let inv =
          if s1.kind = Spec.Deep_learning && s2.kind = Spec.Deep_learning
          then
            match Runner.naive_hfuse c1 c2 with
            | Some f ->
                let traces = Runner.hfuse_traces ~settings c1 c2 f in
                Some
                  (push rl
                     (arch, [ Runner.hfuse_spec f ~reg_bound:None ~traces ]))
            | None -> None
          else None
        in
        (size1, i1, i2, inat, best, ivf, inv))
      multipliers
  in
  (* phase 2: pure measurement replays, fanned over the pool *)
  let reports =
    Runner.run_many ?pool ?jobs ~settings ?cache ?checkpoint (runs_of rl)
  in
  let points =
    List.map
      (fun (size1, i1, i2, inat, best, ivf, inv) ->
        let t1 = reports.(i1).Timing.time_ms in
        let t2 = reports.(i2).Timing.time_ms in
        {
          size1;
          size2;
          ratio = t1 /. t2;
          native_ms = reports.(inat).Timing.time_ms;
          hfuse_ms = best.Hfuse_core.Search.time;
          hfuse_d1 = best.Hfuse_core.Search.fused.Hfuse_core.Hfuse.d1;
          hfuse_d2 = best.Hfuse_core.Search.fused.Hfuse_core.Hfuse.d2;
          hfuse_reg_bound =
            best.Hfuse_core.Search.config.Hfuse_core.Search.reg_bound;
          vfuse_ms = Option.map (fun i -> reports.(i).Timing.time_ms) ivf;
          naive_ms = Option.map (fun i -> reports.(i).Timing.time_ms) inv;
        })
      prepped
  in
  { pair = (s1, s2); arch; varied_first = true; points }

(** The full Figure 7: 16 pairs x 2 architectures, one shared pool. *)
let figure7 ?multipliers ?(jobs = 1) ~settings ?cache ?checkpoint
    ?top_k ?(archs = Arch.all) ?(pairs = Registry.all_pairs) () : sweep list =
  Hfuse_parallel.Pool.with_pool jobs (fun pool ->
      List.concat_map
        (fun arch ->
          let sizes =
            representative_sizes ~settings ~pool ?cache ?checkpoint arch
          in
          List.map
            (fun pair ->
              sweep_pair ?multipliers ~pool ~settings ?cache ?checkpoint
                ?top_k arch sizes pair)
            pairs)
        archs)

(* ------------------------------------------------------------------ *)
(* Figure 8: individual kernel metrics                                  *)
(* ------------------------------------------------------------------ *)

type kernel_row = {
  kernel : Spec.t;
  per_arch : (Arch.t * Metrics.t) list;  (** in [archs] order *)
}

let figure8 ?(jobs = 1) ?pool ~settings ?cache ?checkpoint ?(archs = Arch.all)
    () : kernel_row list =
  let go pool =
    let rl = runlist () in
    let sizes =
      List.map
        (fun (arch : Arch.t) ->
          ( arch.name,
            representative_sizes ~settings ~pool ?cache ?checkpoint arch ))
        archs
    in
    let prepped =
      List.map
        (fun (s : Spec.t) ->
          ( s,
            List.map
              (fun (arch : Arch.t) ->
                let sizes = List.assoc arch.name sizes in
                let mem = Memory.create () in
                let c = Runner.configure mem s ~size:(size_of sizes s) in
                ( arch,
                  push rl (arch, [ Runner.spec_of ~settings c ~stream:0 () ]) ))
              archs ))
        Registry.all
    in
    let reports =
      Runner.run_many ~pool ~settings ?cache ?checkpoint (runs_of rl)
    in
    List.map
      (fun ((s : Spec.t), per_arch) ->
        {
          kernel = s;
          per_arch =
            List.map
              (fun (arch, i) ->
                (arch, Metrics.of_report ~label:s.name reports.(i)))
              per_arch;
        })
      prepped
  in
  match pool with
  | Some p -> go p
  | None -> Hfuse_parallel.Pool.with_pool jobs go

(* ------------------------------------------------------------------ *)
(* Figure 9: fused kernel metrics, RegCap vs N-RegCap                   *)
(* ------------------------------------------------------------------ *)

type fused_variant = {
  speedup_pct : float;  (** vs native parallel-stream execution *)
  metrics : Metrics.t;
  d1 : int;
  d2 : int;
  reg_bound : int option;
}

type fused_row = {
  f_pair : Spec.t * Spec.t;
  f_arch : Arch.t;
  native_util : float;  (** cycle-weighted average of the two solos *)
  no_regcap : fused_variant;
  regcap : fused_variant option;
      (** [None] when the bound is not computable (b0 = 0) *)
}

(* phase-1 product for one fig-9 row: run indices + the searched fusion *)
type f9_prep = {
  p_pair : Spec.t * Spec.t;
  p_arch : Arch.t;
  p_i1 : int;
  p_i2 : int;
  p_inat : int;
  p_fused : Hfuse_core.Hfuse.t;
  p_ihf0 : int;  (** index of the unbounded variant's replay *)
  p_regcap : (int * int) option;  (** (r0, replay index) *)
}

let f9_prepare ?jobs ?pool ~settings ?cache ?checkpoint ?top_k
    (arch : Arch.t) (sizes : (string * int) list) ((s1, s2) : Spec.t * Spec.t)
    rl : f9_prep =
  let mem = Memory.create () in
  let c1 = Runner.configure mem s1 ~size:(size_of sizes s1) in
  let c2 = Runner.configure mem s2 ~size:(size_of sizes s2) in
  let spec c = Runner.spec_of ~settings c in
  let i1 = push rl (arch, [ spec c1 ~stream:0 () ]) in
  let i2 = push rl (arch, [ spec c2 ~stream:0 () ]) in
  let inat = push rl (arch, [ spec c1 ~stream:0 (); spec c2 ~stream:1 () ]) in
  let sr =
    Runner.search ?jobs ?pool ~settings ?cache ?checkpoint ?top_k arch
      c1 c2
  in
  let fused = sr.Hfuse_core.Search.best.Hfuse_core.Search.fused in
  let traces = Runner.hfuse_traces ~settings c1 c2 fused in
  let ihf0 = push rl (arch, [ Runner.hfuse_spec fused ~reg_bound:None ~traces ]) in
  let fused_smem =
    Hfuse_core.Kernel_info.smem_total (Hfuse_core.Hfuse.info fused)
  in
  let r0 =
    Hfuse_core.Occupancy.register_bound
      (Arch.sm_limits arch)
      ~d1:fused.Hfuse_core.Hfuse.d1 ~regs1:s1.regs
      ~d2:fused.Hfuse_core.Hfuse.d2 ~regs2:s2.regs ~fused_smem
  in
  let regcap =
    Option.map
      (fun r ->
        ( r,
          push rl
            (arch, [ Runner.hfuse_spec fused ~reg_bound:(Some r) ~traces ]) ))
      r0
  in
  {
    p_pair = (s1, s2);
    p_arch = arch;
    p_i1 = i1;
    p_i2 = i2;
    p_inat = inat;
    p_fused = fused;
    p_ihf0 = ihf0;
    p_regcap = regcap;
  }

let f9_row (reports : Timing.report array) (p : f9_prep) : fused_row =
  let s1, s2 = p.p_pair in
  let m1 = Metrics.of_report ~label:s1.Spec.name reports.(p.p_i1) in
  let m2 = Metrics.of_report ~label:s2.Spec.name reports.(p.p_i2) in
  let native = reports.(p.p_inat).Timing.time_ms in
  let fused = p.p_fused in
  let variant reg_bound (r : Timing.report) =
    {
      speedup_pct = speedup ~native ~fused:r.Timing.time_ms;
      metrics = Metrics.of_report ~label:fused.Hfuse_core.Hfuse.fn.f_name r;
      d1 = fused.Hfuse_core.Hfuse.d1;
      d2 = fused.Hfuse_core.Hfuse.d2;
      reg_bound;
    }
  in
  {
    f_pair = p.p_pair;
    f_arch = p.p_arch;
    native_util = Metrics.weighted_issue_util [ m1; m2 ];
    no_regcap = variant None reports.(p.p_ihf0);
    regcap =
      Option.map (fun (r, i) -> variant (Some r) reports.(i)) p.p_regcap;
  }

let figure9_pair ?jobs ?pool ~settings ?cache ?checkpoint ?top_k
    (arch : Arch.t) (sizes : (string * int) list) (pair : Spec.t * Spec.t) :
    fused_row =
  let rl = runlist () in
  let prep =
    f9_prepare ?jobs ?pool ~settings ?cache ?checkpoint ?top_k arch
      sizes pair rl
  in
  let reports =
    Runner.run_many ?pool ?jobs ~settings ?cache ?checkpoint (runs_of rl)
  in
  f9_row reports prep

(** Figure 9 over all pairs and architectures: every pair's traces and
    search run serially (phase 1), then a single pool-wide fan-out
    replays all measurement runs at once. *)
let figure9 ?(jobs = 1) ~settings ?cache ?checkpoint ?top_k
    ?(archs = Arch.all) ?(pairs = Registry.all_pairs) () : fused_row list =
  Hfuse_parallel.Pool.with_pool jobs (fun pool ->
      let rl = runlist () in
      let preps =
        List.concat_map
          (fun arch ->
            let sizes =
              representative_sizes ~settings ~pool ?cache ?checkpoint arch
            in
            List.map
              (fun pair ->
                f9_prepare ~pool ~settings ?cache ?checkpoint ?top_k arch
                  sizes pair rl)
              pairs)
          archs
      in
      let reports =
        Runner.run_many ~pool ~settings ?cache ?checkpoint (runs_of rl)
      in
      List.map (f9_row reports) preps)
