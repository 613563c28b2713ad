open Hsfq_engine
open Hsfq_kernel

type clock = Host | Sim | Count

type metric = {
  name : string;
  value : float;
  unit_ : string;
  clock : clock;
  note : string;
}

type check = { label : string; ok : bool; detail : string }

type result = {
  workload : string;
  seed : int;
  end_to_end : metric list;
  per_layer : metric list;
  checks : check list;
  spans : Spans.t option;
}

let metric ?(note = "") name unit_ clock value = { name; value; unit_; clock; note }

let find ms name =
  match List.find_opt (fun m -> String.equal m.name name) ms with
  | Some m -> m.value
  | None -> raise Not_found

(* What a repetition leaves behind: its samples and outcome, not its
   system, so repetitions can pile up without keeping their heaps. *)
type rep = {
  setup_ns : int;
  slice_ns : int array;
  decisions : int;
  events : int;
  words : float;
  minor_gcs : int;
  migrations : int;
  check_digest : string;
  end_digest : string;
  fairness : float array;  (** empty unless [~outcome] *)
  latency_p99_ms : float;
  rt_rounds : int;
  rt_misses : int;
  top_heap_words : int;
}

(* SFQ attains eq. 3's bound exactly on some windows; the ratio of two
   float sums can then read a few ulps above 1. *)
let fairness_tolerance = 1e-9

let check_slice (spec : Workloads.spec) = Int.max 1 (spec.slices / 10)

(* One repetition: set-up, warm-up, then [slices] measured slices.  Only
   [Kernel.run_until] sits inside a slice's host interval; ring draining
   and digests run between slices.  [~outcome] also computes the
   simulated metrics (every repetition's digest already pins them). *)
let run_rep ?(outcome = false) (spec : Workloads.spec) ~seed ~traced ~slices =
  (* Collect the previous repetition's garbage first, so every
     repetition starts from the same heap. *)
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  let sys = System.create ~traced ~cpus:spec.cpus ~config:spec.config () in
  let built = spec.build sys ~seed in
  let setup_ns = Clock.now_ns () - t0 in
  let replay = if traced then Some (Replay.create sys) else None in
  let drain () = Option.iter Replay.drain replay in
  drain ();
  let horizon = ref Time.zero in
  while !horizon < spec.warmup do
    horizon := Int.min spec.warmup (!horizon + spec.slice);
    Kernel.run_until sys.k !horizon;
    drain ()
  done;
  Option.iter Replay.mark replay;
  Option.iter Spans.reset_region sys.spans;
  let d0 = System.decisions sys and e0 = Sim.steps sys.sim in
  let m0 = Kernel.migrations sys.k in
  let g0 = (Gc.quick_stat ()).minor_collections in
  let slice_ns = Array.make slices 0 in
  let words = ref 0. and check_digest = ref "" in
  for i = 1 to slices do
    horizon := spec.warmup + (i * spec.slice);
    let w0 = Gc.minor_words () in
    let s0 = Clock.now_ns () in
    Option.iter (fun sp -> Spans.enter_slice sp s0) sys.spans;
    Kernel.run_until sys.k !horizon;
    let s1 = Clock.now_ns () in
    Option.iter (fun sp -> Spans.leave_slice sp s1) sys.spans;
    words := !words +. (Gc.minor_words () -. w0);
    slice_ns.(i - 1) <- s1 - s0;
    drain ();
    if i = check_slice spec then check_digest := System.digest sys
  done;
  let minor_gcs = (Gc.quick_stat ()).minor_collections - g0 in
  let rt_rounds, rt_misses =
    List.fold_left
      (fun (r, m) c ->
        (r + Hsfq_workload.Periodic.completed c, m + Hsfq_workload.Periodic.misses c))
      (0, 0) built.rt
  in
  ( {
    setup_ns;
    slice_ns;
    decisions = System.decisions sys - d0;
    events = Sim.steps sys.sim - e0;
    words = !words;
    minor_gcs;
    migrations = Kernel.migrations sys.k - m0;
    check_digest = !check_digest;
    end_digest = System.digest sys;
    fairness =
      (if outcome then System.fairness_ratios sys ~pairs:built.pairs ~lmax:built.lmax
       else [||]);
    latency_p99_ms = (if outcome then System.latency_p99_ms sys else nan);
    rt_rounds;
    rt_misses;
    top_heap_words = (Gc.quick_stat ()).top_heap_words;
  },
    sys,
    replay )

let sum_ns a = Array.fold_left ( + ) 0 a
let per_decision (r : rep) ns = float_of_int ns /. float_of_int r.decisions
let region_s (r : rep) = float_of_int (sum_ns r.slice_ns) /. 1e9

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile over host slice times. *)
let percentile a p =
  let a = Array.copy a in
  Array.sort Int.compare a;
  let n = Array.length a in
  let r = int_of_float (Float.ceil (p *. float_of_int n)) in
  a.(Int.max 0 (Int.min (n - 1) (r - 1)))

(* Extra set-ups (built and dropped), spread over the whole run: before
   each repetition, set-ups until [setup_gap_ns] is spent (at most
   [setup_gap_max]).  Each such group, with the repetition's own
   set-up, contributes its fastest set-up, for the reason slices keep
   their fastest time; setup_s is the median over at least [setup_min]
   groups. *)
let setup_min = 11
let setup_gap_ns = 50_000_000
let setup_gap_max = 25

let setup_only (spec : Workloads.spec) ~seed =
  (* Start from an empty minor heap, as [run_rep] does, so no set-up
     pays for collecting the previous one's garbage. *)
  Gc.minor ();
  let t0 = Clock.now_ns () in
  let sys = System.create ~traced:false ~cpus:spec.cpus ~config:spec.config () in
  ignore (spec.build sys ~seed : Workloads.built);
  Clock.now_ns () - t0

(* The host this runs on changes speed by tens of percent over seconds
   (other tenants' memory traffic), while every repetition of a seed
   does identical work.  So each measured slice is timed once per
   repetition and keeps its fastest time: the slice's cost with the
   interference filtered out. *)
let best_slices reps =
  match reps with
  | [] -> [||]
  | r :: rest ->
    let best = Array.copy r.slice_ns in
    List.iter
      (fun r -> Array.iteri (fun i v -> if v < best.(i) then best.(i) <- v) r.slice_ns)
      rest;
    best

let best_ns_per_decision reps =
  per_decision (List.hd reps) (sum_ns (best_slices reps))

let end_to_end (spec : Workloads.spec) reps setups ~checks =
  let r1 = List.hd reps in
  let nreps = List.length reps in
  let slices = best_slices reps in
  let n = Array.length slices in
  let ms v = float_of_int v /. 1e6 in
  let failed = List.length (List.filter (fun c -> not c.ok) checks) in
  let fairness = Array.fold_left Float.max 0. r1.fairness in
  [
    metric "setup_s" "s" Host
      ~note:
        (let a = Array.of_list setups in
         Printf.sprintf "median of %d groups' fastest set-ups (p10 %.3g, p90 %.3g)"
           (Array.length a)
           (float_of_int (percentile a 0.1) /. 1e9)
           (float_of_int (percentile a 0.9) /. 1e9))
      (median (List.map (fun s -> float_of_int s /. 1e9) setups));
    metric "slice_ms.p50" "ms" Host
      ~note:(Printf.sprintf "%d slices of %s simulated, each the fastest of %d"
               n (Time.to_string spec.slice) nreps)
      (ms (percentile slices 0.5));
    metric "slice_ms.p90" "ms" Host
      ~note:(Printf.sprintf "%d slices, %d beyond p90" n
               (n - int_of_float (Float.ceil (0.9 *. float_of_int n))))
      (ms (percentile slices 0.9));
    (let per_rep = List.map (fun r -> per_decision r (sum_ns r.slice_ns)) reps in
     metric "ns_per_decision" "ns" Host
       ~note:
         (Printf.sprintf
            "%d decisions, fastest slices of %d repetitions (whole repetitions: median %.0f, %.0f..%.0f)"
            r1.decisions nreps (median per_rep)
            (List.fold_left Float.min infinity per_rep)
            (List.fold_left Float.max 0. per_rep))
       (best_ns_per_decision reps));
    metric "minor_words_per_decision" "words" Count
      (r1.words /. float_of_int r1.decisions);
    metric "peak_heap_mb" "MiB" Host
      ~note:"top of the major heap after the first repetition"
      (float_of_int (r1.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
    metric "sim.fairness_ratio" "ratio" Sim
      ~note:(Printf.sprintf "worst of %d sibling pairs" (Array.length r1.fairness))
      fairness;
    metric "sim.latency_ms.p99" "sim_ms" Sim r1.latency_p99_ms;
    metric "sim.deadline_miss_rate" "share" Sim
      ~note:(Printf.sprintf "%d of %d RT rounds" r1.rt_misses r1.rt_rounds)
      (if r1.rt_rounds = 0 then nan
       else float_of_int r1.rt_misses /. float_of_int r1.rt_rounds);
    metric "failed_checks" "share" Count
      ~note:(Printf.sprintf "%d of %d" failed (List.length checks))
      (float_of_int failed /. float_of_int (Int.max 1 (List.length checks)));
  ]

let layer_sum_names =
  [
    "workload.ns_per_decision";
    "leaf.ns_per_decision";
    "hierarchy.ns_per_decision";
    "engine.ns_per_decision";
    "control.ns_per_decision";
  ]

(* Host times of one traced repetition: ns per span kind, per leaf
   discipline, and the measured slices in all. *)
type traced_times = { kind_ns : int array; disc_ns : int array; slices_ns : int }

let traced_times (r : rep) (sys : System.t) =
  let sp = Option.get sys.spans in
  {
    kind_ns = Array.init Spans.nkinds (Spans.ns sp);
    disc_ns = Array.init (Array.length System.disc_names) (Spans.disc_ns sp);
    slices_ns = sum_ns r.slice_ns;
  }

(* Like the untraced slices, each traced quantity keeps its fastest
   value over the traced repetitions (span counts repeat exactly). *)
let fastest a b =
  {
    kind_ns = Array.map2 Int.min a.kind_ns b.kind_ns;
    disc_ns = Array.map2 Int.min a.disc_ns b.disc_ns;
    slices_ns = Int.min a.slices_ns b.slices_ns;
  }

let replays = 5

let per_layer (r1 : rep) (tr : rep) (tsys : System.t) rp (tt : traced_times)
    ~untraced_ns ~cal_ns ~cal_words =
  let sp = Option.get tsys.spans in
  let d = float_of_int tr.decisions in
  let fi = float_of_int in
  let net k = fi tt.kind_ns.(k) -. (cal_ns *. fi (Spans.count sp k)) in
  let per_call k =
    let c = Spans.count sp k in
    if c = 0 then 0. else net k /. fi c
  in
  let raw_per_call k =
    let c = Spans.count sp k in
    if c = 0 then 0. else fi tt.kind_ns.(k) /. fi c
  in
  let leaf_kinds =
    Spans.
      [ k_leaf_select; k_leaf_charge; k_leaf_enqueue; k_leaf_dequeue; k_leaf_other ]
  in
  let sum f = List.fold_left (fun acc k -> acc +. f k) 0. leaf_kinds in
  let leaf_calls = sum (fun k -> fi (Spans.count sp k)) in
  let leaf_ns = sum net in
  let leaf_words =
    sum (fun k -> fi (Spans.words sp k) -. (cal_words *. fi (Spans.count sp k)))
  in
  let wl_ns = net Spans.k_workload in
  (* The replays are deterministic too: run each [replays] times and
     keep the fastest. *)
  let h =
    List.fold_left
      (fun (a : Replay.hier) (b : Replay.hier) ->
        {
          a with
          schedule_ns = Int.min a.schedule_ns b.schedule_ns;
          update_ns = Int.min a.update_ns b.update_ns;
          setrun_sleep_ns = Int.min a.setrun_sleep_ns b.setrun_sleep_ns;
          mismatches = Int.max a.mismatches b.mismatches;
        })
      (Replay.replay_hierarchy rp ~clock_ns:cal_ns)
      (List.init (replays - 1) (fun _ -> Replay.replay_hierarchy rp ~clock_ns:cal_ns))
  in
  let h_ns = fi (h.schedule_ns + h.update_ns + h.setrun_sleep_ns) in
  let avg ns n = if n = 0 then 0. else fi ns /. fi n in
  let replay_events, replay_ns =
    List.fold_left
      (fun (_, best) (n, ns) -> (n, Int.min best ns))
      (Replay.replay_engine rp)
      (List.init (replays - 1) (fun _ -> Replay.replay_engine rp))
  in
  let ns_per_event = avg replay_ns replay_events in
  let events_per_decision = fi tr.events /. d in
  let engine_pd = ns_per_event *. events_per_decision in
  let control_ns = fi tt.kind_ns.(Spans.k_control) in
  let traced_ns = fi tt.slices_ns in
  let child_raw =
    List.fold_left
      (fun acc k -> acc +. fi tt.kind_ns.(k))
      0.
      (Spans.k_workload :: Spans.k_control :: leaf_kinds)
  in
  let layers = (wl_ns /. d) +. (leaf_ns /. d) +. (h_ns /. d) +. engine_pd +. (control_ns /. d) in
  let residual = untraced_ns -. layers in
  let disc_metrics =
    Array.to_list
      (Array.mapi
         (fun i name ->
           let dd = Spans.disc_decisions sp i in
           metric
             (Printf.sprintf "leaf.%s.ns_per_decision" name)
             "ns" Host
             ~note:(Printf.sprintf "%d decisions" dd)
             (if dd = 0 then 0.
              else
                (fi tt.disc_ns.(i) -. (cal_ns *. fi (Spans.disc_calls sp i)))
                /. fi dd))
         System.disc_names)
  in
  [
    metric "kernel.decisions" "count" Count d;
    metric "workload.ns_per_call" "ns" Host (per_call Spans.k_workload);
    metric "workload.calls_per_decision" "count" Count
      (fi (Spans.count sp Spans.k_workload) /. d);
    metric "workload.ns_per_decision" "ns" Host (wl_ns /. d);
    metric "leaf.select.ns" "ns" Host (per_call Spans.k_leaf_select);
    metric "leaf.charge.ns" "ns" Host (per_call Spans.k_leaf_charge);
    metric "leaf.enqueue.ns" "ns" Host (per_call Spans.k_leaf_enqueue);
    metric "leaf.dequeue.ns" "ns" Host (per_call Spans.k_leaf_dequeue);
    metric "leaf.calls_per_decision" "count" Count (leaf_calls /. d);
    metric "leaf.words_per_decision" "words" Count (leaf_words /. d);
    metric "leaf.ns_per_decision" "ns" Host (leaf_ns /. d);
  ]
  @ disc_metrics
  @ [
      metric "hierarchy.schedule.ns" "ns" Host (avg h.schedule_ns h.schedules);
      metric "hierarchy.update.ns" "ns" Host (avg h.update_ns h.updates);
      metric "hierarchy.setrun_sleep.ns" "ns" Host
        ~note:(Printf.sprintf "%d ops" h.setrun_sleeps)
        (avg h.setrun_sleep_ns h.setrun_sleeps);
      metric "hierarchy.levels_per_decision" "count" Count
        (fi (Replay.picks rp) /. d);
      metric "hierarchy.words_per_decision" "words" Count (h.words /. d);
      metric "hierarchy.ns_per_decision" "ns" Host (h_ns /. d);
      metric "hierarchy.replay_mismatches" "count" Count (fi h.mismatches);
      metric "hierarchy.mknod.ns" "ns" Host
        ~note:(Printf.sprintf "%d calls" (Spans.count sp Spans.k_mknod))
        (raw_per_call Spans.k_mknod);
      metric "hierarchy.rmnod.ns" "ns" Host
        ~note:(Printf.sprintf "%d calls" (Spans.count sp Spans.k_rmnod))
        (raw_per_call Spans.k_rmnod);
      metric "kernel.spawn.ns" "ns" Host
        ~note:(Printf.sprintf "%d calls" (Spans.count sp Spans.k_spawn))
        (raw_per_call Spans.k_spawn);
      metric "kernel.kill.ns" "ns" Host
        ~note:(Printf.sprintf "%d calls" (Spans.count sp Spans.k_kill))
        (raw_per_call Spans.k_kill);
      metric "footprint.end_words" "words" Count (fi (System.footprint_words tsys));
      metric "control.ns_per_decision" "ns" Host (control_ns /. d);
      metric "engine.events" "count" Count (fi tr.events);
      metric "engine.events_per_decision" "count" Count events_per_decision;
      metric "engine.events_per_s" "1/s" Host
        ~note:"untraced, first repetition"
        (fi r1.events /. region_s r1);
      metric "engine.replay_events" "count" Count
        ~note:(Printf.sprintf "approximate; %d real" tr.events)
        (fi replay_events);
      metric "engine.replay_ns_per_event" "ns" Host ns_per_event;
      metric "engine.ns_per_decision" "ns" Host engine_pd;
      metric "kernel.migrations_per_decision" "count" Count
        (fi tr.migrations /. d);
      metric "kernel.self_ns_per_decision" "ns" Host
        ~note:"traced slice time minus workload, leaf and control spans and replayed hierarchy"
        ((traced_ns -. child_raw -. h_ns) /. d);
      metric "obs.overhead_ns_per_decision" "ns" Host
        ((traced_ns /. d) -. untraced_ns);
      metric "obs.events_per_decision" "count" Count
        (fi (Replay.ring_events rp) /. d);
      metric "residual.ns_per_decision" "ns" Host residual;
      metric "residual.share" "share" Host (residual /. untraced_ns);
      metric "gc.minor_collections_per_s" "1/s" Host
        ~note:"untraced, first repetition"
        (fi r1.minor_gcs /. region_s r1);
    ]

(* Repetitions (untraced, and traced in the per-layer run) per run at
   least: the repeat checks need two. *)
let min_reps = 2

let run (spec : Workloads.spec) ~seed ~seconds ~trace =
  let checks = ref [] in
  let check label ok detail = checks := { label; ok; detail } :: !checks in
  let started = Clock.now_ns () in
  let elapsed () = float_of_int (Clock.now_ns () - started) /. 1e9 in
  (* The per-layer run spends 40% of its budget untraced, then traced
     repetitions up to 80%; the replays take the rest. *)
  let budget = if trace then 0.4 *. seconds else seconds in
  let r1, _, _ = run_rep ~outcome:true spec ~seed ~traced:false ~slices:spec.slices in
  let reps = ref [ r1 ] and setups = ref [] in
  let setup_group first =
    let best = ref first and spent = ref 0 and k = ref 0 in
    while !k < setup_gap_max && !spent < setup_gap_ns do
      let s = setup_only spec ~seed in
      spent := !spent + s;
      incr k;
      best := Int.min !best s
    done;
    setups := !best :: !setups
  in
  setup_group r1.setup_ns;
  while List.length !reps < min_reps || elapsed () < budget do
    let r, _, _ = run_rep spec ~seed ~traced:false ~slices:spec.slices in
    reps := r :: !reps;
    setup_group r.setup_ns
  done;
  while List.length !setups < setup_min do
    setup_group max_int
  done;
  let reps = List.rev !reps and setups = !setups in
  check "events fire" (r1.events > 0 && r1.decisions > 0)
    (Printf.sprintf "%d events, %d decisions" r1.events r1.decisions);
  List.iteri
    (fun i r ->
      if i > 0 then
        check
          (Printf.sprintf "repetition %d repeats repetition 1" (i + 1))
          (String.equal r.end_digest r1.end_digest
          && String.equal r.check_digest r1.check_digest
          && r.words = r1.words && r.events = r1.events)
          (Printf.sprintf "%s vs %s" r.end_digest r1.end_digest))
    reps;
  let worst = Array.fold_left Float.max 0. r1.fairness in
  check
    (Printf.sprintf "eq. 3 windowed bound on %d sibling pairs"
       (Array.length r1.fairness))
    (Array.for_all (fun r -> r <= 1. +. fairness_tolerance) r1.fairness)
    (Printf.sprintf "worst gap/bound = %.12f" worst);
  let traced_slices = if trace then spec.slices else check_slice spec in
  let cal_ns, cal_words = if trace then Instr.calibrate () else (0., 0.) in
  let tr, tsys, trp = run_rep spec ~seed ~traced:true ~slices:traced_slices in
  check "tracing leaves the checkpoint outcome unchanged"
    (String.equal tr.check_digest r1.check_digest)
    (Printf.sprintf "%s vs %s" tr.check_digest r1.check_digest);
  let rp = Option.get trp in
  check "obs ring never wrapped between drains"
    (not (Replay.overflowed rp))
    (Printf.sprintf "capacity %d" System.ring_capacity);
  let per_layer =
    if trace then begin
      check "tracing leaves the whole outcome unchanged"
        (String.equal tr.end_digest r1.end_digest)
        (Printf.sprintf "%s vs %s" tr.end_digest r1.end_digest);
      let tt = ref (traced_times tr tsys) and ntraced = ref 1 in
      while !ntraced < min_reps || elapsed () < 0.8 *. seconds do
        let t, sys, _ = run_rep spec ~seed ~traced:true ~slices:traced_slices in
        incr ntraced;
        check
          (Printf.sprintf "traced repetition %d repeats the untraced outcome" !ntraced)
          (String.equal t.end_digest r1.end_digest)
          (Printf.sprintf "%s vs %s" t.end_digest r1.end_digest);
        tt := fastest !tt (traced_times t sys)
      done;
      let untraced_ns = best_ns_per_decision reps in
      let m = per_layer r1 tr tsys rp !tt ~untraced_ns ~cal_ns ~cal_words in
      let mism = find m "hierarchy.replay_mismatches" in
      check "hierarchy replay matches the recorded decisions" (mism = 0.)
        (Printf.sprintf "%.0f mismatches" mism);
      m
    end
    else []
  in
  let checks = List.rev !checks in
  {
    workload = spec.name;
    seed;
    end_to_end = end_to_end spec reps setups ~checks;
    per_layer;
    checks;
    spans = tsys.spans;
  }
