let algorithm_name = "eevdf"

(* [ve]/[vd] live in a 2-cell float array rather than mutable float
   fields: in a mixed record every float store allocates a fresh box,
   and these two are re-written on every charge. *)
type client = {
  mutable weight : float; (* set rarely; a boxed store there is fine *)
  vf : float array; (* [| ve; vd |], unboxed stores *)
  mutable runnable : bool;
  mutable gen : int; (* generation of the queued heap entry *)
}

type t = {
  clients : (int, client) Hashtbl.t;
  (* Two ready queues with lazy invalidation: clients whose eligible time
     has been reached, keyed by virtual deadline, and not-yet-eligible
     clients keyed by eligible time. [select] migrates entries as the
     system virtual time advances. *)
  eligible : Keyed_heap.t;
  future : Keyed_heap.t;
  (* Cached staging/readback cells of the two heaps: pushes write the
     key here (an unboxed float-array store) and [promote] reads the
     peeked key back the same way, so requeueing never boxes. *)
  el_stage : float array;
  fu_stage : float array;
  fu_peek : float array;
  vt : float array; (* 1-cell: virtual time, re-written every charge *)
  tw : float array;
      (* 1-cell: total runnable weight. A [mutable float] field in this
         mixed record would box on every store, and it is re-written on
         every arrive/depart/blocking charge — the last boxed-float
         store this module had. *)
  mutable nrun : int;
  mutable in_service : int; (* -1 = none *)
  q : float;
  mutable next_gen : int;
      (* instance-wide generation counter for heap entries: a per-client
         counter restarts when a departed id arrives anew, so the new
         record's entries would collide with stale ones still queued
         under the same id and [valid] would revive them (the client
         then runs under an obsolete deadline) *)
}

(* [Hashtbl.find] + exception match (not [find_opt]): the validator runs
   for every entry the heaps inspect, and the [Some] box of a successful
   [find_opt] would put an allocation in every pop. *)
let valid t ~id ~gen =
  match Hashtbl.find t.clients id with
  | c -> c.runnable && c.gen = gen
  | exception Not_found -> false

let create ?rng:_ ?(quantum_hint = 1e7) () =
  let eligible = Keyed_heap.create () and future = Keyed_heap.create () in
  let t =
    {
      clients = Hashtbl.create 16;
      eligible;
      future;
      el_stage = Keyed_heap.stage_cell eligible;
      fu_stage = Keyed_heap.stage_cell future;
      fu_peek = Keyed_heap.peeked_key_cell future;
      vt = [| 0. |];
      tw = [| 0. |];
      nrun = 0;
      in_service = -1;
      q = quantum_hint;
      next_gen = 0;
    }
  in
  (* Enables compaction once stale entries dominate (see Keyed_heap),
     and backs the allocation-free [pop_valid]/[peek_valid]. *)
  Keyed_heap.set_validator t.eligible (valid t);
  Keyed_heap.set_validator t.future (valid t);
  t

let get t id =
  match Hashtbl.find t.clients id with
  | c -> c
  | exception Not_found ->
    invalid_arg (Printf.sprintf "%s: unknown client %d" algorithm_name id)

(* A runnable client leaves the backlog; an empty backlog weighs exactly
   0, whatever rounding the +./-. updates left behind (as in
   [Fq_engine.leave_backlog]). *)
let leave_backlog t c =
  t.tw.(0) <- t.tw.(0) -. c.weight;
  t.nrun <- t.nrun - 1;
  if t.nrun = 0 then t.tw.(0) <- 0.

let fresh_gen t c =
  t.next_gen <- t.next_gen + 1;
  c.gen <- t.next_gen

let enqueue t id c =
  fresh_gen t c;
  if c.vf.(0) <= t.vt.(0) then begin
    t.el_stage.(0) <- c.vf.(1);
    Keyed_heap.push_staged t.eligible ~gen:c.gen ~id
  end
  else begin
    t.fu_stage.(0) <- c.vf.(0);
    Keyed_heap.push_staged t.future ~gen:c.gen ~id
  end

let arrive t ~id ~weight =
  match Hashtbl.find t.clients id with
  | c ->
    if not c.runnable then begin
      c.runnable <- true;
      (* A waking client resumes no earlier than the current virtual
         time: it must not reclaim service "owed" from its sleep. *)
      c.vf.(0) <- Float.max c.vf.(0) t.vt.(0);
      c.vf.(1) <- c.vf.(0) +. (t.q /. c.weight);
      t.tw.(0) <- t.tw.(0) +. c.weight;
      t.nrun <- t.nrun + 1;
      enqueue t id c
    end
  | exception Not_found ->
    if weight <= 0. then invalid_arg "Eevdf.arrive: weight <= 0";
    let c =
      {
        weight;
        vf = [| t.vt.(0); t.vt.(0) +. (t.q /. weight) |];
        runnable = true;
        gen = -1;
      }
    in
    Hashtbl.replace t.clients id c;
    t.tw.(0) <- t.tw.(0) +. c.weight;
    t.nrun <- t.nrun + 1;
    enqueue t id c

let depart t ~id =
  match Hashtbl.find t.clients id with
  | exception Not_found -> ()
  | c ->
    if c.runnable then begin
      leave_backlog t c;
      (* The queued entry just went stale. Guessing which queue holds it
         from [ve] is only a heuristic (promotion may have moved it);
         a misattributed report merely shifts when each queue compacts. *)
      if t.in_service <> id then begin
        if c.vf.(0) <= t.vt.(0) then Keyed_heap.invalidate t.eligible
        else Keyed_heap.invalidate t.future
      end
    end;
    fresh_gen t c;
    Hashtbl.remove t.clients id

let set_weight t ~id ~weight =
  if weight <= 0. then invalid_arg "Eevdf.set_weight: weight <= 0";
  let c = get t id in
  if c.runnable then t.tw.(0) <- t.tw.(0) -. c.weight +. weight;
  c.weight <- weight

(* Move every future client whose eligible time has been reached into the
   eligible queue. Allocation-free: [peek_valid]/[pop_valid] return
   sentinel ids and the peeked key reads back through the cached cell. *)
let rec promote t =
  let id = Keyed_heap.peek_valid t.future in
  if id >= 0 && t.fu_peek.(0) <= t.vt.(0) then begin
    ignore (Keyed_heap.pop_valid t.future);
    let c = get t id in
    fresh_gen t c;
    t.el_stage.(0) <- c.vf.(1);
    Keyed_heap.push_staged t.eligible ~gen:c.gen ~id;
    promote t
  end

let select t =
  if t.in_service >= 0 then
    invalid_arg "select: a selection is already in service";
  if t.nrun = 0 then -1
  else begin
    promote t;
    let id = Keyed_heap.pop_valid t.eligible in
    let id =
      if id >= 0 then id
      else
        (* No eligible client: run the earliest-eligible one (work
           conservation); virtual time will catch up as it is charged. *)
        Keyed_heap.pop_valid t.future
    in
    t.in_service <- id;
    id
  end

let charge t ~id ~service ~runnable =
  if t.in_service <> id then invalid_arg "Eevdf.charge: client not in service";
  t.in_service <- -1;
  let c = get t id in
  let service = float_of_int service in
  if t.tw.(0) > 0. then t.vt.(0) <- t.vt.(0) +. (service /. t.tw.(0));
  c.vf.(0) <- c.vf.(0) +. (service /. c.weight);
  c.vf.(1) <- c.vf.(0) +. (t.q /. c.weight);
  if runnable then enqueue t id c
  else begin
    c.runnable <- false;
    leave_backlog t c
  end

let backlogged t = t.nrun
let virtual_time t = t.vt.(0)
