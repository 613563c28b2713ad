open Hsfq_engine
open Hsfq_core
open Hsfq_kernel
module W = Hsfq_workload

type built = {
  pairs : (int * int) list;
  lmax : Time.span;
  rt : W.Periodic.counter list;
}

type spec = {
  name : string;
  cpus : int;
  config : Kernel.config;
  warmup : Time.span;
  slice : Time.span;
  slices : int;
  build : System.t -> seed:int -> built;
}

let ms = Time.milliseconds
let us = Time.microseconds

let svr4_handle (l : System.leaf) =
  match l.svr4 with Some h -> h | None -> invalid_arg "not an svr4 leaf"

let start (sys : System.t) tid = Kernel.start sys.k tid

(* Lock, hold the mutex for [hold] of CPU work, unlock, sleep [gap]. *)
let mutex_worker ~m ~hold ~gap : Workload_intf.t =
  let step = ref 0 in
  fun ~now:_ ->
    let s = !step in
    step := (s + 1) land 3;
    match s with
    | 0 -> Workload_intf.Lock m
    | 1 -> Workload_intf.Compute hold
    | 2 -> Workload_intf.Unlock m
    | _ -> Workload_intf.Sleep_for gap

(* Compute [burst], then one request to [dev], forever. *)
let io_worker ~dev ~burst : Workload_intf.t =
  let io = ref false in
  fun ~now:_ ->
    io := not !io;
    if !io then Workload_intf.Compute burst else Workload_intf.Io (dev, 1)

(* ------------------------------------------------------------------ *)
(* paper-mix: the paper's Figure 2 structure on one CPU, every leaf     *)
(* class live.                                                          *)
(*                                                                      *)
(*   /rt            SVR4 leaf, RT class: periodic tasks (Fig. 9 style)   *)
(*   /video         SFQ leaf: 4 unpaced MPEG decoders                    *)
(*   /best-effort   internal                                             *)
(*     /ts          SVR4 leaf, TS class: Dhrystone threads + daemons     *)
(*     /interactive SFQ leaf: interactive threads, two threads sharing   *)
(*                  one mutex (weight donation), one I/O thread          *)
(*                                                                      *)
(* Unpaced decoders and Dhrystone never block, so /video and            *)
(* /best-effort stay backlogged: that pair carries the eq. 3 check.     *)
(* ------------------------------------------------------------------ *)

let paper_mix_config = { Kernel.default_config with default_quantum = ms 20 }

let paper_mix (sys : System.t) ~seed =
  let rng = Prng.create seed in
  let root = Hierarchy.root in
  let rt =
    System.make_leaf sys ~parent:root ~name:"rt" ~weight:4. ~disc:System.d_svr4
      ~rng
  in
  let video =
    System.make_leaf sys ~parent:root ~name:"video" ~weight:3. ~disc:System.d_sfq
      ~rng
  in
  let be = System.internal sys ~parent:root ~name:"best-effort" ~weight:3. in
  let ts =
    System.make_leaf sys ~parent:be ~name:"ts" ~weight:2. ~disc:System.d_svr4 ~rng
  in
  let inter =
    System.make_leaf sys ~parent:be ~name:"interactive" ~weight:1.
      ~disc:System.d_sfq ~rng
  in
  let rt_counters =
    List.mapi
      (fun i (period, cost, prio) ->
        let wl, c =
          W.Periodic.make ~period:(ms period) ~cost:(ms cost)
            ~phase:(ms (Prng.int rng period)) ()
        in
        let tid = System.spawn sys rt ~name:(Printf.sprintf "rt%d" i) wl in
        Leaf_sched.Svr4_leaf.add (svr4_handle rt) ~tid
          (Hsfq_sched.Svr4.Rt prio);
        sys.latency_tids <- tid :: sys.latency_tids;
        start sys tid;
        c)
      [ (60, 10, 3); (240, 20, 2); (100, 5, 1) ]
  in
  for i = 0 to 3 do
    let params = { W.Mpeg.default_params with seed = Prng.int rng 1_000_000 } in
    let wl, _ = W.Mpeg.decoder params () in
    let tid = System.spawn sys video ~name:(Printf.sprintf "mpeg%d" i) wl in
    video.add ~tid ~weight:(if i < 2 then 1. else 2.);
    start sys tid
  done;
  for i = 0 to 2 do
    let wl, _ = W.Dhrystone.make ~loop_cost:(us 500) () in
    let tid = System.spawn sys ts ~name:(Printf.sprintf "dhry%d" i) wl in
    Leaf_sched.Svr4_leaf.add (svr4_handle ts) ~tid Hsfq_sched.Svr4.Ts;
    start sys tid
  done;
  for i = 0 to 2 do
    let wl, _ =
      W.Interactive.make ~mean_think:(ms 300) ~burst:(ms 20)
        ~seed:(Prng.int rng 1_000_000) ()
    in
    let tid = System.spawn sys ts ~name:(Printf.sprintf "daemon%d" i) wl in
    Leaf_sched.Svr4_leaf.add (svr4_handle ts) ~tid Hsfq_sched.Svr4.Ts;
    start sys tid
  done;
  for i = 0 to 3 do
    let wl, _ =
      W.Interactive.make ~mean_think:(ms 50) ~burst:(ms 2)
        ~seed:(Prng.int rng 1_000_000) ()
    in
    let tid = System.spawn sys inter ~name:(Printf.sprintf "ia%d" i) wl in
    inter.add ~tid ~weight:1.;
    sys.latency_tids <- tid :: sys.latency_tids;
    start sys tid
  done;
  let m = Kernel.create_mutex sys.k in
  List.iteri
    (fun i weight ->
      let wl = mutex_worker ~m ~hold:(ms 3) ~gap:(ms (4 + Prng.int rng 4)) in
      let tid = System.spawn sys inter ~name:(Printf.sprintf "locker%d" i) wl in
      inter.add ~tid ~weight;
      start sys tid)
    [ 1.; 3. ];
  let dev =
    Kernel.create_device sys.k
      (Kernel.Exponential_service { mean = ms 2; seed = Prng.int rng 1_000_000 })
  in
  let wl = io_worker ~dev ~burst:(ms 1) in
  let tid = System.spawn sys inter ~name:"io" wl in
  inter.add ~tid ~weight:1.;
  start sys tid;
  Kernel.add_interrupt_source sys.k
    (Interrupt_source.Periodic { period = ms 10; cost = us 50 });
  Kernel.add_interrupt_source sys.k
    (Interrupt_source.Poisson
       { rate_hz = 200.; mean_cost = us 100; seed = Prng.int rng 1_000_000 });
  {
    pairs = [ (video.id, be) ];
    lmax = paper_mix_config.default_quantum;
    rt = rt_counters;
  }

(* ------------------------------------------------------------------ *)
(* churn: 4 CPUs, a flat tree of SFQ leaves holding short-lived          *)
(* interactive threads.  The benchmark's own control event (every 2 ms   *)
(* of simulated time) respawns exited threads, and every 100 ms retires  *)
(* the oldest leaf (kill its threads, uninstall, rmnod) and mknods a     *)
(* fresh one.  A 1 kHz interrupt runs on each CPU.  One extra subtree,   *)
(* /anchor with two CPU-bound SFQ leaves, keeps a backlogged sibling     *)
(* pair for the eq. 3 check (a root child serves one CPU at a time, so   *)
(* its children share that CPU by SFQ).                                  *)
(* ------------------------------------------------------------------ *)

let churn_config = { Kernel.default_config with default_quantum = ms 10 }
let churn_leaves = 16
let churn_threads = 8
let control_period = ms 2
let retire_every = 50 (* control ticks *)

type churn_leaf = {
  cl : System.leaf;
  mutable live : int list;
  mutable retiring : bool;
}

let churn (sys : System.t) ~seed =
  let rng = Prng.create seed in
  let root = Hierarchy.root in
  let anchor = System.internal sys ~parent:root ~name:"anchor" ~weight:2. in
  let anchors =
    List.map
      (fun (name, weight) ->
        let l =
          System.make_leaf sys ~parent:anchor ~name ~weight ~disc:System.d_sfq
            ~rng
        in
        for i = 0 to 1 do
          let wl, _ =
            W.Dhrystone.make ~loop_cost:(us (500 + Prng.int rng 1000)) ()
          in
          let tid = System.spawn sys l ~name:(Printf.sprintf "%s%d" name i) wl in
          l.add ~tid ~weight:(1. +. (0.5 *. float_of_int i));
          start sys tid
        done;
        l)
      [ ("anchor-a", 1.); ("anchor-b", 2.5) ]
  in
  let generation = ref 0 in
  let spawn_one c =
    let wl, _ =
      W.Interactive.make ~mean_think:(ms 20)
        ~burst:(us (200 + Prng.int rng 600))
        ~seed:(Prng.int rng 1_000_000)
        ~requests:(20 + Prng.int rng 40)
        ()
    in
    let tid = System.spawn sys c.cl ~name:"ia" wl in
    c.cl.add ~tid ~weight:(1. +. float_of_int (Prng.int rng 3));
    sys.latency_tids <- tid :: sys.latency_tids;
    start sys tid;
    c.live <- tid :: c.live
  in
  let new_leaf () =
    let name = Printf.sprintf "c%d" !generation in
    incr generation;
    let cl =
      System.make_leaf sys ~parent:root ~name ~weight:1. ~disc:System.d_sfq ~rng
    in
    let c = { cl; live = []; retiring = false } in
    for _ = 1 to churn_threads do
      spawn_one c
    done;
    c
  in
  let leaves = ref (List.init churn_leaves (fun _ -> new_leaf ())) in
  let ticks = ref 0 in
  let alive tid = Kernel.state sys.k tid <> Kernel.Exited in
  let control () =
    incr ticks;
    if !ticks mod retire_every = 0 then begin
      (match List.find_opt (fun c -> not c.retiring) !leaves with
      | Some c -> c.retiring <- true
      | None -> ());
      leaves := !leaves @ [ new_leaf () ]
    end;
    leaves :=
      List.filter
        (fun c ->
          c.live <- List.filter alive c.live;
          if c.retiring then begin
            List.iter
              (fun tid ->
                if Kernel.state sys.k tid <> Kernel.Running then System.kill sys tid)
              c.live;
            c.live <- List.filter alive c.live;
            if c.live = [] then begin
              System.remove_leaf sys c.cl;
              false
            end
            else true
          end
          else begin
            for _ = List.length c.live + 1 to churn_threads do
              spawn_one c
            done;
            true
          end)
        !leaves
  in
  let rec tick () =
    (match sys.spans with
    | None -> control ()
    | Some sp ->
      let t0 = Clock.now_ns () in
      control ();
      Spans.record sp ~kind:Spans.k_control ~start:t0 ~stop:(Clock.now_ns ())
        ~words:0);
    ignore (Sim.after sys.sim control_period tick : Event_queue.handle)
  in
  ignore (Sim.after sys.sim control_period tick : Event_queue.handle);
  for cpu = 0 to sys.cpus - 1 do
    Kernel.add_interrupt_source sys.k ~cpu
      (Interrupt_source.Periodic { period = ms 1; cost = us 20 })
  done;
  match anchors with
  | [ a; b ] -> { pairs = [ (a.id, b.id) ]; lmax = churn_config.default_quantum; rt = [] }
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* deep-fair: one CPU, a balanced binary hierarchy of depth 10 (1024     *)
(* leaves), 8 CPU-bound Dhrystone threads per leaf with non-dyadic       *)
(* weights, a 1 ms quantum, no interrupts, no blocking.  Leaf            *)
(* disciplines rotate over SFQ and every FAIR baseline.  Every sibling   *)
(* pair stays backlogged, so all 1023 pairs carry the eq. 3 check.       *)
(* ------------------------------------------------------------------ *)

let deep_fair_config = { Kernel.default_config with default_quantum = ms 1 }
let deep_depth = 10
let deep_threads = 8

let deep_rotation =
  System.
    [| d_sfq; d_wfq; d_scfq; d_fqs; d_stride; d_rr; d_eevdf; d_lottery |]

(* Node weights on a non-dyadic grid (1.0, 1.3, ..., 3.4), fixed by a
   node's position, and each leaf's thread weights a seeded permutation
   of one fixed non-dyadic set: every seed runs the same shares, which
   set when each thread first runs (what sim.latency_ms.p99 reports
   here).  The seed draws the permutations, the loop costs and the
   lottery leaves' draws. *)
let thread_weights = [| 0.5; 0.85; 1.2; 1.55; 1.9; 2.25; 2.6; 0.85 |]

let node_weight ~depth ~index = 1. +. (0.3 *. float_of_int (((7 * index) + (3 * depth)) mod 9))

let deep_fair (sys : System.t) ~seed =
  let rng = Prng.create seed in
  let pairs = ref [] and nleaf = ref 0 in
  let rec grow parent depth index =
    let kids =
      List.init 2 (fun c ->
          let name = Printf.sprintf "n%d" c in
          let index = (2 * index) + c in
          let weight = node_weight ~depth:(depth + 1) ~index in
          if depth + 1 = deep_depth then begin
            let disc = deep_rotation.(!nleaf mod Array.length deep_rotation) in
            incr nleaf;
            let l = System.make_leaf sys ~parent ~name ~weight ~disc ~rng in
            let weights = Array.copy thread_weights in
            Prng.shuffle rng weights;
            for i = 0 to deep_threads - 1 do
              let wl, _ =
                W.Dhrystone.make ~loop_cost:(ms (2 + Prng.int rng 7)) ()
              in
              let tid = System.spawn sys l ~name:(Printf.sprintf "t%d" i) wl in
              l.add ~tid ~weight:weights.(i);
              sys.latency_tids <- tid :: sys.latency_tids;
              start sys tid
            done;
            l.id
          end
          else begin
            let id = System.internal sys ~parent ~name ~weight in
            grow id (depth + 1) index;
            id
          end)
    in
    match kids with
    | [ a; b ] -> pairs := (a, b) :: !pairs
    | _ -> assert false
  in
  grow Hierarchy.root 0 0;
  { pairs = !pairs; lmax = deep_fair_config.default_quantum; rt = [] }

let all =
  [
    {
      name = "paper-mix";
      cpus = 1;
      config = paper_mix_config;
      warmup = Time.seconds 20;
      slice = ms 2500;
      slices = 800;
      build = paper_mix;
    };
    {
      name = "churn";
      cpus = 4;
      config = churn_config;
      warmup = Time.seconds 1;
      slice = Time.microseconds 62_500;
      slices = 800;
      build = churn;
    };
    {
      name = "deep-fair";
      cpus = 1;
      config = deep_fair_config;
      warmup = Time.seconds 10;
      slice = ms 125;
      slices = 800;
      build = deep_fair;
    };
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) all

let scaled s ~slices ~divisor =
  { s with slices; warmup = s.warmup / divisor; slice = s.slice / divisor }
