open Hsfq_engine
open Hsfq_core
module Ring = Hsfq_obs.Ring
module Trace = Hsfq_obs.Trace

let op_setrun = 1
let op_sleep = 2
let op_sched = 3
let op_update = 4
let op_mknod = 5
let op_rmnod = 6
let op_mark = 7

type t = {
  sys : System.t;
  ring : Ring.t;
  mutable ops : int array;
  mutable n : int;
  mutable is_leaf : bool array;
  mutable structs : System.struct_op array; (* oldest first *)
  mutable next_struct : int;
  mutable pending : int; (* sched op waiting for its dispatch, or -1 *)
  mutable seen : int; (* ring events consumed *)
  mutable overflow : bool;
  mutable marked : bool;
  mutable ring_events : int;
  mutable picks : int;
  mutable times : int array;
  mutable nt : int;
  mutable last_time : int;
}

let create (sys : System.t) =
  match sys.obs with
  | None -> invalid_arg "Replay.create: untraced system"
  | Some tr ->
    {
      sys;
      ring = Trace.ring tr;
      ops = Array.make 4096 0;
      n = 0;
      is_leaf = Array.make 64 false;
      structs = [||];
      next_struct = 0;
      pending = -1;
      seen = 0;
      overflow = false;
      marked = false;
      ring_events = 0;
      picks = 0;
      times = Array.make 4096 0;
      nt = 0;
      last_time = -1;
    }

let grow a n = if n < Array.length a then a else Array.append a (Array.make (Array.length a) 0)

let push t v =
  t.ops <- grow t.ops t.n;
  t.ops.(t.n) <- v;
  t.n <- t.n + 1

let leaf t id = id < Array.length t.is_leaf && t.is_leaf.(id)

let next_struct t =
  if t.next_struct >= Array.length t.structs then
    t.structs <- Array.of_list (List.rev t.sys.log);
  let k = t.next_struct in
  t.next_struct <- k + 1;
  k

let set_leaf t id v =
  while id >= Array.length t.is_leaf do
    t.is_leaf <- Array.append t.is_leaf (Array.make (Array.length t.is_leaf) false)
  done;
  t.is_leaf.(id) <- v

let event t j =
  let code = Ring.code t.ring j and a = Ring.a t.ring j and b = Ring.b t.ring j in
  if t.marked then begin
    t.ring_events <- t.ring_events + 1;
    let time = Ring.time t.ring j in
    if time <> t.last_time then begin
      t.last_time <- time;
      t.times <- grow t.times t.nt;
      t.times.(t.nt) <- time;
      t.nt <- t.nt + 1
    end
  end;
  if code = Trace.ev_pick then begin
    if t.marked then t.picks <- t.picks + 1;
    if a = Hierarchy.root then begin
      push t op_sched;
      t.pending <- t.n;
      push t (-1)
    end
  end
  else if code = Trace.ev_dispatch then begin
    if t.pending >= 0 then t.ops.(t.pending) <- b;
    t.pending <- -1
  end
  else if code = Trace.ev_tag_update then begin
    if leaf t b then begin
      push t op_update;
      push t b;
      push t (int_of_float (Ring.x t.ring j));
      push t (Ring.c t.ring j)
    end
  end
  else if code = Trace.ev_node_setrun then begin
    if leaf t b then begin
      push t op_setrun;
      push t b
    end
  end
  else if code = Trace.ev_node_sleep then begin
    if leaf t b then begin
      push t op_sleep;
      push t b
    end
  end
  else if code = Trace.ev_mknod then begin
    let k = next_struct t in
    (match t.structs.(k) with
    | System.Mk { kind; _ } -> set_leaf t b (kind = Hierarchy.Leaf)
    | System.Rm _ -> ());
    push t op_mknod;
    push t k
  end
  else if code = Trace.ev_rmnod then begin
    push t op_rmnod;
    push t (next_struct t)
  end

let drain t =
  let total = Ring.total t.ring and len = Ring.length t.ring in
  let first = total - len in
  if t.seen < first then begin
    t.overflow <- true;
    t.seen <- first
  end;
  for e = t.seen to total - 1 do
    event t (e - first)
  done;
  t.seen <- total

let mark t =
  drain t;
  push t op_mark;
  t.marked <- true

let overflowed t = t.overflow
let ring_events t = t.ring_events
let picks t = t.picks

type hier = {
  schedule_ns : int;
  schedules : int;
  update_ns : int;
  updates : int;
  setrun_sleep_ns : int;
  setrun_sleeps : int;
  words : float;
  mismatches : int;
}

let replay_hierarchy t ~clock_ns =
  let h = Hierarchy.create () in
  if t.sys.cpus > 1 then Hierarchy.set_servers h t.sys.cpus;
  let structs = Array.of_list (List.rev t.sys.log) in
  let on = ref false in
  let sched_ns = ref 0 and sched_n = ref 0 in
  let upd_ns = ref 0 and upd_n = ref 0 in
  let sr_ns = ref 0 and sr_n = ref 0 in
  let words = ref 0. and mismatches = ref 0 in
  let ops = t.ops in
  let i = ref 0 in
  while !i < t.n do
    let op = ops.(!i) in
    if op = op_sched then begin
      let w0 = Gc.minor_words () in
      let t0 = Clock.now_ns () in
      let r = Hierarchy.schedule_id h in
      let t1 = Clock.now_ns () in
      let w = Gc.minor_words () -. w0 in
      if r <> ops.(!i + 1) then incr mismatches;
      if !on then begin
        sched_ns := !sched_ns + (t1 - t0);
        incr sched_n;
        words := !words +. w
      end;
      i := !i + 2
    end
    else if op = op_update then begin
      let w0 = Gc.minor_words () in
      let t0 = Clock.now_ns () in
      Hierarchy.update_ns h ~leaf:ops.(!i + 1) ~service_ns:ops.(!i + 2)
        ~leaf_runnable:(ops.(!i + 3) = 1);
      let t1 = Clock.now_ns () in
      let w = Gc.minor_words () -. w0 in
      if !on then begin
        upd_ns := !upd_ns + (t1 - t0);
        incr upd_n;
        words := !words +. w
      end;
      i := !i + 4
    end
    else if op = op_setrun || op = op_sleep then begin
      let t0 = Clock.now_ns () in
      if op = op_setrun then Hierarchy.setrun h ops.(!i + 1)
      else Hierarchy.sleep h ops.(!i + 1);
      let t1 = Clock.now_ns () in
      if !on then begin
        sr_ns := !sr_ns + (t1 - t0);
        incr sr_n
      end;
      i := !i + 2
    end
    else if op = op_mknod then begin
      (match structs.(ops.(!i + 1)) with
      | System.Mk { name; parent; weight; kind; id } -> (
        match Hierarchy.mknod h ~name ~parent ~weight kind with
        | Ok id' -> if id' <> id then incr mismatches
        | Error _ -> incr mismatches)
      | System.Rm _ -> incr mismatches);
      i := !i + 2
    end
    else if op = op_rmnod then begin
      (match structs.(ops.(!i + 1)) with
      | System.Rm id -> (
        match Hierarchy.rmnod h id with Ok () -> () | Error _ -> incr mismatches)
      | System.Mk _ -> incr mismatches);
      i := !i + 2
    end
    else begin
      (* op_mark *)
      on := true;
      incr i
    end
  done;
  let net total n = Int.max 0 (total - int_of_float (clock_ns *. float_of_int n)) in
  {
    schedule_ns = net !sched_ns !sched_n;
    schedules = !sched_n;
    update_ns = net !upd_ns !upd_n;
    updates = !upd_n;
    setrun_sleep_ns = net !sr_ns !sr_n;
    setrun_sleeps = !sr_n;
    words = !words;
    mismatches = !mismatches;
  }

let window = 64

let replay_engine t =
  let sim = Sim.create () in
  let times = t.times and n = t.nt in
  let next = ref 0 and fired = ref 0 in
  let rec fire () =
    incr fired;
    if !next < n then begin
      let j = !next in
      incr next;
      ignore (Sim.at sim times.(j) fire : Event_queue.handle)
    end
  in
  while !next < Int.min window n do
    let j = !next in
    incr next;
    ignore (Sim.at sim times.(j) fire : Event_queue.handle)
  done;
  let t0 = Clock.now_ns () in
  Sim.run sim;
  let t1 = Clock.now_ns () in
  (!fired, t1 - t0)
