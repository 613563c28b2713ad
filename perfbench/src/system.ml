open Hsfq_engine
open Hsfq_core
open Hsfq_kernel

let disc_names =
  [| "sfq"; "wfq"; "scfq"; "fqs"; "stride"; "rr"; "eevdf"; "lottery"; "svr4" |]

let d_sfq = 0
let d_wfq = 1
let d_scfq = 2
let d_fqs = 3
let d_stride = 4
let d_rr = 5
let d_eevdf = 6
let d_lottery = 7
let d_svr4 = 8

type struct_op =
  | Mk of {
      name : string;
      parent : int;
      weight : float;
      kind : Hierarchy.kind;
      id : int;
    }
  | Rm of int

type leaf = {
  id : int;
  add : tid:int -> weight:float -> unit;
  svr4 : Leaf_sched.Svr4_leaf.handle option;
  sfq : Sfq.t option;
}

type t = {
  sim : Sim.t;
  hier : Hierarchy.t;
  k : Kernel.t;
  cpus : int;
  spans : Spans.t option;
  obs : Hsfq_obs.Trace.t option;
  mutable log : struct_op list;
  mutable tids : int array;
  mutable ntids : int;
  mutable latency_tids : int list;
  leaf_tids : (int, int list) Hashtbl.t;
  mutable leaves : leaf list;
}

(* Big enough for every event one slice of any workload emits; the
   harness drains the ring after each slice and fails a check if it
   ever wrapped in between. *)
let ring_capacity = 1 lsl 18

let create ~traced ?(cpus = 1) ?(config = Kernel.default_config) () =
  let sim = Sim.create () in
  let hier = Hierarchy.create () in
  let k = Kernel.create ~config ~cpus sim hier in
  let spans, obs =
    if traced then begin
      let tr = Hsfq_obs.Trace.create ~capacity:ring_capacity ~enabled:true () in
      let s = Hsfq_obs.Trace.register_sys tr ~label:"perfbench" in
      Hierarchy.attach_obs hier (Some s);
      Kernel.set_obs k (Some s);
      (Some (Spans.create ~disciplines:(Array.length disc_names) ()), Some tr)
    end
    else (None, None)
  in
  {
    sim;
    hier;
    k;
    cpus;
    spans;
    obs;
    log = [];
    tids = Array.make 64 0;
    ntids = 0;
    latency_tids = [];
    leaf_tids = Hashtbl.create 64;
    leaves = [];
  }

(* Time [f] as a span of [kind] when tracing; plain call otherwise. *)
let timed t kind f =
  match t.spans with
  | None -> f ()
  | Some sp ->
    let t0 = Clock.now_ns () in
    let r = f () in
    Spans.record sp ~kind ~start:t0 ~stop:(Clock.now_ns ()) ~words:0;
    r

let mknod t ~parent ~name ~weight kind =
  match
    timed t Spans.k_mknod (fun () ->
        Hierarchy.mknod t.hier ~name ~parent ~weight kind)
  with
  | Ok id ->
    t.log <- Mk { name; parent; weight; kind; id } :: t.log;
    id
  | Error e -> invalid_arg (Printf.sprintf "mknod %s: %s" name e)

let internal t ~parent ~name ~weight =
  mknod t ~parent ~name ~weight Hierarchy.Internal

(* The FAIR baselines, indexed by discipline. *)
let fair_scheds : (module Hsfq_sched.Scheduler_intf.FAIR) option array =
  [|
    None;
    Some (module Hsfq_sched.Wfq);
    Some (module Hsfq_sched.Scfq);
    Some (module Hsfq_sched.Fqs);
    Some (module Hsfq_sched.Stride);
    Some (module Hsfq_sched.Round_robin);
    Some (module Hsfq_sched.Eevdf);
    Some (module Hsfq_sched.Lottery);
    None;
  |]

let no_add ~tid:_ ~weight:_ = invalid_arg "svr4 leaf: use the svr4 handle"

let make_leaf t ~parent ~name ~weight ~disc ~rng =
  let id = mknod t ~parent ~name ~weight Hierarchy.Leaf in
  let lf, add, svr4, sfq =
    match fair_scheds.(disc) with
    | Some (module F) ->
      let module L = Leaf_sched.Fair_leaf (F) in
      let lf, h =
        L.make ~rng:(Prng.split rng)
          ~quantum_hint:(float_of_int (Kernel.config t.k).default_quantum)
          ()
      in
      (lf, L.add h, None, None)
    | None when disc = d_sfq ->
      let lf, h = Leaf_sched.Sfq_leaf.make () in
      (lf, Leaf_sched.Sfq_leaf.add h, None, Some (Leaf_sched.Sfq_leaf.sfq h))
    | None ->
      let lf, h = Leaf_sched.Svr4_leaf.make () in
      (lf, no_add, Some h, None)
  in
  let lf = match t.spans with Some sp -> Instr.leaf sp ~disc lf | None -> lf in
  Kernel.install_leaf t.k id lf;
  let leaf = { id; add; svr4; sfq } in
  t.leaves <- leaf :: t.leaves;
  leaf

let remove_leaf t leaf =
  Kernel.uninstall_leaf t.k leaf.id;
  (match timed t Spans.k_rmnod (fun () -> Hierarchy.rmnod t.hier leaf.id) with
  | Ok () -> t.log <- Rm leaf.id :: t.log
  | Error e -> invalid_arg (Printf.sprintf "rmnod %d: %s" leaf.id e));
  Hashtbl.remove t.leaf_tids leaf.id;
  t.leaves <- List.filter (fun l -> l.id <> leaf.id) t.leaves

let push_tid t tid =
  if t.ntids = Array.length t.tids then begin
    let a = Array.make (2 * t.ntids) 0 in
    Array.blit t.tids 0 a 0 t.ntids;
    t.tids <- a
  end;
  t.tids.(t.ntids) <- tid;
  t.ntids <- t.ntids + 1

let spawn t leaf ~name wl =
  let wl = match t.spans with Some sp -> Instr.workload sp wl | None -> wl in
  let tid =
    timed t Spans.k_spawn (fun () -> Kernel.spawn t.k ~name ~leaf:leaf.id wl)
  in
  push_tid t tid;
  let prev = Option.value (Hashtbl.find_opt t.leaf_tids leaf.id) ~default:[] in
  Hashtbl.replace t.leaf_tids leaf.id (tid :: prev);
  tid

let kill t tid = timed t Spans.k_kill (fun () -> Kernel.kill t.k tid)

let decisions t =
  let n = ref 0 in
  for i = 0 to t.ntids - 1 do
    n := !n + Kernel.dispatch_count t.k t.tids.(i)
  done;
  !n

let digest t =
  let b = Buffer.create 4096 in
  for i = 0 to t.ntids - 1 do
    let tid = t.tids.(i) in
    let st = Kernel.latency_stats t.k tid in
    Printf.bprintf b "%d:%d:%d:%d:%h:%h;" tid (Kernel.cpu_time t.k tid)
      (Kernel.dispatch_count t.k tid) (Stats.count st) (Stats.mean st)
      (if Stats.count st = 0 then 0. else Stats.max_value st)
  done;
  Printf.bprintf b "steps=%d idle=%d irq=%d mig=%d" (Sim.steps t.sim)
    (Kernel.idle_time t.k) (Kernel.interrupt_time t.k) (Kernel.migrations t.k);
  Digest.to_hex (Digest.string (Buffer.contents b))

let footprint_words t =
  List.fold_left
    (fun acc l ->
      match l.sfq with Some s -> acc + Sfq.footprint_words s | None -> acc)
    (Hierarchy.footprint_words t.hier)
    t.leaves

let latency_p99_ms t =
  let samples =
    List.concat_map
      (fun tid -> Array.to_list (Series.values (Kernel.latency_series t.k tid)))
      t.latency_tids
    |> Array.of_list
  in
  let n = Array.length samples in
  if n = 0 then 0.
  else begin
    Array.sort Float.compare samples;
    (* nearest rank *)
    let r = int_of_float (Float.ceil (0.99 *. float_of_int n)) in
    samples.(Int.max 0 (r - 1)) /. 1e6
  end

let rec leaves_under hier id =
  match Hierarchy.kind_of hier id with
  | Hierarchy.Leaf -> [ id ]
  | Hierarchy.Internal ->
    List.concat_map (leaves_under hier) (Hierarchy.children_of hier id)

(* (time, service / weight) of every charge to a thread under [node],
   signed [sign]. *)
let charges t node ~sign =
  let w = sign /. Hierarchy.weight t.hier node in
  List.concat_map
    (fun leaf ->
      List.concat_map
        (fun tid ->
          let s = Kernel.cpu_series t.k tid in
          let ts = Series.times s and vs = Series.values s in
          List.init (Array.length ts) (fun i -> (ts.(i), vs.(i) *. w)))
        (Option.value (Hashtbl.find_opt t.leaf_tids leaf) ~default:[]))
    (leaves_under t.hier node)

(* D(t) = W_f(0,t)/r_f - W_m(0,t)/r_m changes only at charges; the worst
   window gap is max D - min D over every prefix, D(0) = 0 included. *)
let fairness_ratios t ~pairs ~lmax =
  let l = float_of_int lmax in
  Array.of_list
    (List.map
       (fun (f, m) ->
         let cs =
           Array.of_list (charges t f ~sign:1. @ charges t m ~sign:(-1.))
         in
         Array.stable_sort (fun (a, _) (b, _) -> Int.compare a b) cs;
         let d = ref 0. and hi = ref 0. and lo = ref 0. in
         Array.iter
           (fun (_, v) ->
             d := !d +. v;
             if !d > !hi then hi := !d;
             if !d < !lo then lo := !d)
           cs;
         let bound =
           (l /. Hierarchy.weight t.hier f) +. (l /. Hierarchy.weight t.hier m)
         in
         (!hi -. !lo) /. bound)
       pairs)
