type key = Start_tag | Finish_tag | Arrival | Requeue
type length = Hint | Actual
type clock = Gps_round | In_service | Global_pass | Wall_clock | No_clock

(* Per-client lifecycle, the first int of a slot's [iv] triple. *)
let st_absent = 0
let st_blocked = 1
let st_runnable = 2

(* Offsets within a slot's [fv] quintuple ([5 * slot + _]) and [iv]
   triple ([3 * slot + _]). *)
let f_weight = 0
let f_start = 1
    (* start tag of the pending quantum; stride's pass; the queue key
       of an [Arrival]/[Requeue] client *)
let f_pendf = 2 (* finish tag of the pending quantum (Hint) *)
let f_finish = 3 (* finish tag of the last charged quantum *)
let f_lead = 4 (* Global_pass: pass - v, saved at block *)
let i_state = 0
let i_gen = 1 (* generation of the slot's queued entry *)
let i_id = 2 (* client id; -1 = free *)

let[@inline always] fx slot f = (5 * slot) + f
let[@inline always] ix slot i = (3 * slot) + i

(* Tags and weights are never NaN here (weights are validated, services
   are non-negative), so a bare compare — which inlines, unlike the
   cross-module Float.max — gives the same bits. *)
let[@inline always] fmax (a : float) (b : float) = if a < b then b else a

type t = {
  name : string;
  label : string;
  key : key;
  length : length;
  clock : clock;
  mutable cap : int; (* slots in [fv] and [iv] *)
  mutable fv : float array; (* stride 5: weight, start, pendf, finish, lead *)
  mutable iv : int array; (* stride 3: state, gen, client id *)
  slot_of : (int, int) Hashtbl.t; (* id -> slot: arrive/depart/set_weight *)
  mutable top : int; (* slots [0, top) are in use or on the free stack *)
  mutable freev : int array;
  mutable nfree : int;
  queue : Keyed_heap.t;
  kstage : float array; (* the queue's staging cell for [push_staged] *)
  klast : float array; (* the queue's last-popped-key cell *)
  v : vclock;
  mutable nrun : int;
  mutable svc : int; (* slot in service, -1 = none *)
  mutable next_gen : int;
  mutable as_of : int; (* Wall_clock: the wall instant v(t) is at *)
}

(* All-float record: stores to [vt]/[sum]/[seq] are unboxed. *)
and vclock = {
  mutable vt : float;
  mutable sum : float; (* weight of the backlogged clients *)
  mutable seq : float; (* last Arrival/Requeue key handed out *)
  lhat : float;
  capacity : float;
}

let weighted t = match t.key with Start_tag | Finish_tag -> true | Arrival | Requeue -> false

let create ~name ~label ~key ~length ~clock ?(capacity = 1.0) ~quantum_hint () =
  let queue = Keyed_heap.create () in
  let t =
    {
      name;
      label;
      key;
      length;
      clock;
      cap = 0;
      fv = [||];
      iv = [||];
      slot_of = Hashtbl.create 16;
      top = 0;
      freev = [||];
      nfree = 0;
      queue;
      kstage = Keyed_heap.stage_cell queue;
      klast = Keyed_heap.last_key_cell queue;
      v = { vt = 0.; sum = 0.; seq = 0.; lhat = quantum_hint; capacity };
      nrun = 0;
      svc = -1;
      next_gen = 0;
      as_of = 0;
    }
  in
  (* A queued slot is live iff it still holds a runnable client under
     the same generation; generations are unique per instance, so an
     entry left behind by a departure stays dead when its slot or its
     id comes back. *)
  Keyed_heap.set_validator queue (fun ~id ~gen ->
      id < t.cap && t.iv.(ix id i_state) = st_runnable && t.iv.(ix id i_gen) = gen);
  t

(* id -> slot, -1 if unknown: find-on-hit allocates nothing. *)
let lookup t id = match Hashtbl.find t.slot_of id with s -> s | exception Not_found -> -1

let grow t =
  let ncap = Int.max 16 (2 * t.cap) in
  let nf = Array.make (5 * ncap) 0. in
  Array.blit t.fv 0 nf 0 (5 * t.cap);
  t.fv <- nf;
  let ni = Array.make (3 * ncap) st_absent in
  Array.blit t.iv 0 ni 0 (3 * t.cap);
  for s = t.cap to ncap - 1 do
    ni.(ix s i_id) <- -1
  done;
  t.iv <- ni;
  t.cap <- ncap

let alloc_slot t =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    t.freev.(t.nfree)
  end
  else begin
    if t.top >= t.cap then grow t;
    t.top <- t.top + 1;
    t.top - 1
  end

let free_slot t slot =
  if t.nfree >= Array.length t.freev then begin
    let n = Array.make (Int.max 16 (2 * t.nfree)) 0 in
    Array.blit t.freev 0 n 0 t.nfree;
    t.freev <- n
  end;
  t.freev.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1

(* Push [slot] under the key already written to [kstage] (a float
   argument would box under -opaque). *)
let push t slot =
  t.next_gen <- t.next_gen + 1;
  t.iv.(ix slot i_gen) <- t.next_gen;
  Keyed_heap.push_staged t.queue ~gen:t.next_gen ~id:slot

(* Tag the next quantum and queue it. [wake] is true for a client that
   just became runnable (first arrival or return from blocking) and
   false for one re-queued by [charge]. *)
let enqueue t slot ~wake =
  (match t.key with
  | Arrival ->
    if wake then begin
      t.v.seq <- t.v.seq +. 1.;
      t.fv.(fx slot f_start) <- t.v.seq
    end;
    t.kstage.(0) <- t.fv.(fx slot f_start)
  | Requeue ->
    t.v.seq <- t.v.seq +. 1.;
    t.kstage.(0) <- t.v.seq
  | Start_tag | Finish_tag -> (
    (match t.clock with
    | Global_pass ->
      if wake then t.fv.(fx slot f_start) <- t.v.vt +. fmax 0. t.fv.(fx slot f_lead)
      else t.fv.(fx slot f_start) <- t.fv.(fx slot f_finish)
    | Gps_round | In_service | Wall_clock | No_clock ->
      t.fv.(fx slot f_start) <- fmax t.v.vt t.fv.(fx slot f_finish));
    (match t.length with
    | Hint ->
      t.fv.(fx slot f_pendf) <-
        t.fv.(fx slot f_start) +. (t.v.lhat /. t.fv.(fx slot f_weight))
    | Actual -> ());
    match t.key with
    | Finish_tag -> t.kstage.(0) <- t.fv.(fx slot f_pendf)
    | Start_tag | Arrival | Requeue -> t.kstage.(0) <- t.fv.(fx slot f_start)));
  push t slot

(* A runnable client leaves the backlog; an empty backlog weighs exactly
   0, whatever rounding the +./-. updates left behind. *)
let leave_backlog t slot =
  t.v.sum <- t.v.sum -. t.fv.(fx slot f_weight);
  t.nrun <- t.nrun - 1;
  if t.nrun = 0 then t.v.sum <- 0.

let register t ~id ~weight =
  if weighted t && not (weight > 0.) then invalid_arg (t.label ^ ".arrive: weight <= 0");
  let slot = alloc_slot t in
  t.iv.(ix slot i_id) <- id;
  Hashtbl.replace t.slot_of id slot;
  t.fv.(fx slot f_weight) <- weight;
  Array.fill t.fv (fx slot f_start) 4 0.;
  slot

let arrive t ~id ~weight =
  let slot = lookup t id in
  let slot =
    if slot >= 0 then
      if t.iv.(ix slot i_state) = st_blocked then slot
      else -1 (* already runnable: idempotent *)
    else register t ~id ~weight
  in
  if slot >= 0 then begin
    t.iv.(ix slot i_state) <- st_runnable;
    t.v.sum <- t.v.sum +. t.fv.(fx slot f_weight);
    t.nrun <- t.nrun + 1;
    enqueue t slot ~wake:true
  end

let depart t ~id =
  let slot = lookup t id in
  if slot >= 0 then begin
    if t.iv.(ix slot i_state) = st_runnable then begin
      leave_backlog t slot;
      (* A runnable client not in service has one queued entry; it just
         went stale. *)
      if t.svc = slot then t.svc <- -1 else Keyed_heap.invalidate t.queue
    end;
    t.iv.(ix slot i_state) <- st_absent;
    t.iv.(ix slot i_id) <- -1;
    Hashtbl.remove t.slot_of id;
    free_slot t slot
  end

let set_weight t ~id ~weight =
  if weighted t then begin
    if not (weight > 0.) then invalid_arg (t.label ^ ".set_weight: weight <= 0");
    let slot = lookup t id in
    if slot < 0 then invalid_arg (Printf.sprintf "%s: unknown client %d" t.name id);
    if t.iv.(ix slot i_state) = st_runnable then
      t.v.sum <- t.v.sum -. t.fv.(fx slot f_weight) +. weight;
    t.fv.(fx slot f_weight) <- weight
  end

let select t =
  if t.svc >= 0 then invalid_arg "select: a selection is already in service";
  let slot = Keyed_heap.pop_valid t.queue in
  if slot < 0 then -1
  else begin
    t.svc <- slot;
    (match t.clock with
    | In_service -> t.v.vt <- t.klast.(0)
    | Gps_round | Global_pass | Wall_clock | No_clock -> ());
    t.iv.(ix slot i_id)
  end

let charge t ~id ~service ~runnable =
  let slot = t.svc in
  if slot < 0 || t.iv.(ix slot i_id) <> id then
    invalid_arg (t.label ^ ".charge: client not in service");
  if service < 0 then invalid_arg (t.label ^ ".charge: negative service");
  let service = float_of_int service in
  t.svc <- -1;
  (match t.clock with
  | Gps_round | Global_pass ->
    if t.v.sum > 0. then t.v.vt <- t.v.vt +. (service /. t.v.sum)
  | In_service | Wall_clock | No_clock -> ());
  (match t.key with
  | Start_tag | Finish_tag -> (
    match t.length with
    | Hint -> t.fv.(fx slot f_finish) <- t.fv.(fx slot f_pendf)
    | Actual ->
      t.fv.(fx slot f_finish) <-
        t.fv.(fx slot f_start) +. (service /. t.fv.(fx slot f_weight)))
  | Arrival | Requeue -> ());
  if runnable then enqueue t slot ~wake:false
  else begin
    t.iv.(ix slot i_state) <- st_blocked;
    (match t.clock with
    | Global_pass -> t.fv.(fx slot f_lead) <- t.fv.(fx slot f_finish) -. t.v.vt
    | Gps_round | In_service | Wall_clock | No_clock -> ());
    leave_backlog t slot
  end

let advance t ~now =
  match t.clock with
  | Wall_clock ->
    let dt = now - t.as_of in
    if dt > 0 then begin
      if t.v.sum > 0. then
        t.v.vt <- t.v.vt +. (t.v.capacity *. float_of_int dt /. t.v.sum);
      t.as_of <- now
    end
  | Gps_round | In_service | Global_pass | No_clock -> ()

let backlogged t = t.nrun
let virtual_time t = t.v.vt

module type SPEC = sig
  val algorithm_name : string
  val label : string
  val key : key
  val length : length
  val clock : clock
end

module Fair (S : SPEC) = struct
  type nonrec t = t

  let algorithm_name = S.algorithm_name

  let create ?rng:_ ?(quantum_hint = 1e7) () =
    create ~name:S.algorithm_name ~label:S.label ~key:S.key ~length:S.length
      ~clock:S.clock ~quantum_hint ()

  let arrive = arrive
  let depart = depart
  let set_weight = set_weight
  let select = select
  let charge = charge
  let backlogged = backlogged
  let virtual_time = virtual_time
end
