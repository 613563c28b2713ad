open Hsfq_sched

let algorithm_name = "sfq"

(* Client state lives in a dense slot table of two interleaved blocks,
   so a scheduling decision (select + charge) touches one float block
   and one int block — no hashing, and no allocation, because
   float-array writes store unboxed (a [mutable float] field in a mixed
   record would box on every write). A slot's four floats (weight,
   donated weight, start tag, finish tag) sit side by side in [fv], and
   its three ints (state, heap generation, client id) in [iv], so a
   decision reads adjacent words instead of one cell in each of seven
   columns.

   The table is indexed by *slot*, not by the caller's client id: slots
   are allocated from a free list on arrive and recycled on depart, and
   when live clients fall below a quarter of capacity the blocks are
   packed and halved (see [compact]). That keeps retained memory O(live
   clients) under sustained arrive/depart churn and frees the caller to
   use arbitrary non-negative ids (they no longer size the table). The
   id -> slot map is a hashtable touched by [arrive], [block] and the
   cold paths; a decision is hash-free, because [select] pops a slot
   and [charge] finds its client in the (CPU-count-bounded) claim set.
   Slots never leave this module, so compaction needs to tell only the
   ready queue and the claim set where each client went. *)

(* Per-client lifecycle, the first int of a slot's [iv] triple. *)
let st_absent = 0
let st_blocked = 1
let st_runnable = 2

(* Offsets within a slot's [fv] quadruple ([4 * slot + _]) and [iv]
   triple ([3 * slot + _]). *)
let f_weight = 0 (* administered weight *)
let f_donated = 1 (* extra weight received via [donate] *)
let f_start = 2 (* start tag of the pending quantum *)
let f_finish = 3 (* finish tag of the last quantum *)
let i_state = 0 (* st_absent / st_blocked / st_runnable *)
let i_gen = 1 (* generation of the queued heap entry *)
let i_id = 2 (* client id; -1 = free slot *)

let[@inline always] fx slot f = (4 * slot) + f
let[@inline always] ix slot i = (3 * slot) + i

(* Bounds *live* clients (slots), not ids: 2^22 concurrent clients is
   far beyond any simulated workload, and ids no longer size anything. *)
let max_clients = 1 lsl 22

(* Stdlib.Float.max handles NaN and, being a cross-module call, boxes
   its arguments and result. Tags and weights are never NaN here
   (weights > 0, service >= 0 are enforced), so a bare compare — which
   inlines with no boxing — is equivalent on every reachable input. *)
let[@inline always] fmax (a : float) (b : float) = if a < b then b else a

type t = {
  mutable cap : int; (* slots in [fv] and [iv] *)
  mutable fv : float array; (* stride 4: weight, donated, start, finish *)
  mutable iv : int array; (* stride 3: state, gen, client id *)
  mutable slot_of : (int, int) Hashtbl.t;
      (* id -> slot; rebuilt at compaction (a Hashtbl never shrinks its
         bucket array on remove) and sized to occupancy *)
  mutable top : int; (* slots [0, top) are allocated or on the free list *)
  mutable freev : int array; (* stack of free slots below [top] *)
  mutable nfree : int;
  mutable nlive : int; (* known clients: runnable + blocked *)
  queue : Keyed_heap.t; (* runnable slots keyed by start tag *)
  kstage : float array;
      (* the queue's staging cell: enqueue writes the key here and calls
         [push_staged] — passing the key as a float argument would box
         it (no cross-module inlining under dune's dev -opaque) *)
  klast : float array;
      (* the queue's last-popped-key cell, read directly for the same
         reason ([last_key]'s float return would box) *)
  donations : (int, int * float) Hashtbl.t;
      (* blocked -> (recipient, amount), keyed by client *ids* so
         compaction never touches it; cold path only (donate / revoke /
         depart), never touched by a scheduling decision *)
  clock : clock;
  mutable nrun : int;
  mutable servers : int;
      (* claim capacity: how many selections may be outstanding at once.
         1 (the default) is the paper's single-CPU protocol; the
         multiprocessor hierarchy raises the *root* scheduler's capacity
         to the CPU count (claims are pop-only, so each child subtree
         serves at most one CPU at a time — see Hierarchy.set_servers). *)
  mutable svc : int array; (* claimed slots, [0, nsvc) *)
  mutable nsvc : int; (* outstanding selections not yet charged *)
  mutable obs : Hsfq_obs.Trace.sys option;
      (* tracepoint sink; [None] keeps every decision at a single extra
         match branch *)
  mutable obs_on : bool ref;
      (* the tracer's live enabled cell (Trace.on_cell), cached so a
         disabled tracepoint costs one load + branch — no stage stores,
         no cross-module call *)
  mutable obs_node : int; (* hierarchy node id this SFQ serves, for events *)
  mutable obs_stage : float array;
      (* the tracer ring's float staging cells, cached so an enabled
         emit stores payloads unboxed (same trick as kstage/klast) *)
  mutable obs_mstage : float array;
      (* the tracer's metrics staging cells (Metrics.stage_cell), cached
         so charge samples cross the unit boundary without boxing *)
  mutable next_gen : int;
      (* global generation counter for heap entries: per-slot counters
         would restart at 0 when a freed slot is reused, making the new
         occupant's entries collide with stale ones still queued under
         the same slot (select would then pop an obsolete start tag and
         drag v(t) backwards) *)
}

(* All-float record: flat representation, so [vt <- ...] writes unboxed. *)
and clock = { mutable vt : float; mutable max_finish : float }

let create ?rng:_ ?quantum_hint:_ () =
  let queue = Keyed_heap.create () in
  let t =
    {
      cap = 0;
      fv = [||];
      iv = [||];
      slot_of = Hashtbl.create 16;
      top = 0;
      freev = [||];
      nfree = 0;
      nlive = 0;
      queue;
      kstage = Keyed_heap.stage_cell queue;
      klast = Keyed_heap.last_key_cell queue;
      donations = Hashtbl.create 4;
      clock = { vt = 0.; max_finish = 0. };
      nrun = 0;
      servers = 1;
      svc = Array.make 1 (-1);
      nsvc = 0;
      obs = None;
      obs_on = ref false;
      obs_node = -1;
      obs_stage = Array.make 2 0.;
      obs_mstage = Array.make 3 0.;
      next_gen = 0;
    }
  in
  (* One closure for the heap's compaction/pop validity checks, built
     once: a queued entry is live iff its slot still holds a runnable
     client under the same generation. Compaction-remapped entries keep
     their gen (the slot's ints move with them); entries left pointing at a
     freed or reused slot fail the gen check because generations are
     globally unique. *)
  Keyed_heap.set_validator t.queue (fun ~id ~gen ->
      id < t.cap
      && t.iv.(ix id i_state) = st_runnable
      && t.iv.(ix id i_gen) = gen);
  t

let set_obs t sys ~node =
  t.obs <- sys;
  t.obs_node <- node;
  match sys with
  | Some s ->
    t.obs_stage <- Hsfq_obs.Trace.stage s;
    t.obs_mstage <- Hsfq_obs.Metrics.stage_cell (Hsfq_obs.Trace.metrics s);
    t.obs_on <- Hsfq_obs.Trace.on_cell s
  | None -> t.obs_on <- ref false

(* Index of [slot] in the outstanding-claim set, -1 if not claimed.
   [nsvc] is bounded by the server count (the CPU count in the
   multiprocessor hierarchy), so the linear scan is O(1) in practice —
   and, like every other decision-path helper, allocation-free. *)
let rec claim_index_from t slot i =
  if i >= t.nsvc then -1
  else if t.svc.(i) = slot then i
  else claim_index_from t slot (i + 1)

let claim_index t slot = claim_index_from t slot 0

let set_servers t n =
  if n < 1 then invalid_arg "Sfq.set_servers: capacity < 1";
  if n < t.nsvc then
    invalid_arg "Sfq.set_servers: outstanding selections exceed new capacity";
  if n > Array.length t.svc then begin
    let ns = Array.make n (-1) in
    Array.blit t.svc 0 ns 0 t.nsvc;
    t.svc <- ns
  end;
  t.servers <- n

let servers t = t.servers

(* id -> slot, -1 if unknown. [Hashtbl.find] on an int key neither
   hashes through a closure nor allocates on a hit (unlike [find_opt]'s
   [Some] box); it is constant-time, but listed "cold" for the typed
   lint because Hashtbl.* is a banned prefix on hot paths. Of the
   per-quantum paths only a wake or sleep ([arrive]/[block]) reaches
   it; a decision never does. *)
let slot_lookup t id =
  match Hashtbl.find t.slot_of id with s -> s | exception Not_found -> -1

let state t id =
  let s = slot_lookup t id in
  if s < 0 then st_absent else t.iv.(ix s i_state)

let known t id = state t id <> st_absent

let slot_checked t id =
  let s = slot_lookup t id in
  if s < 0 then invalid_arg (Printf.sprintf "Sfq: unknown client %d" id);
  s

let rec pow2_above c n = if c >= n then c else pow2_above (2 * c) n

let grow t slot =
  let ncap = pow2_above (Int.max 16 (2 * t.cap)) (slot + 1) in
  let nf = Array.make (4 * ncap) 0. in
  Array.blit t.fv 0 nf 0 (4 * t.cap);
  t.fv <- nf;
  let ni = Array.make (3 * ncap) st_absent in
  Array.blit t.iv 0 ni 0 (3 * t.cap);
  for s = t.cap to ncap - 1 do
    ni.(ix s i_id) <- -1
  done;
  t.iv <- ni;
  t.cap <- ncap

let[@inline always] effective_weight t slot =
  t.fv.(fx slot f_weight) +. t.fv.(fx slot f_donated)

let fresh_gen t =
  let g = t.next_gen in
  t.next_gen <- t.next_gen + 1;
  g

let enqueue t slot =
  let g = fresh_gen t in
  t.iv.(ix slot i_gen) <- g;
  t.kstage.(0) <- t.fv.(fx slot f_start);
  Keyed_heap.push_staged t.queue ~gen:g ~id:slot

(* Idle transition: "when the CPU is idle, v(t) is set to the maximum of
   finish tags assigned to any thread" (§3, rule 2). *)
let note_idle t =
  if t.nrun = 0 then t.clock.vt <- fmax t.clock.vt t.clock.max_finish

let free_slot t slot =
  if t.nfree >= Array.length t.freev then begin
    let n = Int.max 16 (2 * Array.length t.freev) in
    let nf = Array.make n 0 in
    Array.blit t.freev 0 nf 0 t.nfree;
    t.freev <- nf
  end;
  t.freev.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1

(* Occupancy-triggered compaction, from [depart]: pack live slots to the
   front (order-preserving), halve the blocks down to 2x headroom, and
   move everything holding a slot — the claim set, and queued heap
   entries via [Keyed_heap.remap_ids] (keys/seqs untouched, so dispatch
   order and FIFO tie-breaks are byte-identical). The
   2x gap between the trigger (live < cap/4) and post-compaction
   occupancy (live = ncap/2) gives the same no-thrash hysteresis as the
   keyed heap's release. O(cap), amortized O(1) per depart. *)
let compact t =
  let old_top = t.top in
  let map = Array.make (Int.max 1 old_top) (-1) in
  let j = ref 0 in
  for s = 0 to old_top - 1 do
    if t.iv.(ix s i_id) >= 0 then begin
      let d = !j in
      map.(s) <- d;
      if d <> s then begin
        Array.blit t.fv (fx s 0) t.fv (fx d 0) 4;
        Array.blit t.iv (ix s 0) t.iv (ix d 0) 3
      end;
      incr j
    end
  done;
  let live = !j in
  for s = live to old_top - 1 do
    t.iv.(ix s i_id) <- -1;
    t.iv.(ix s i_state) <- st_absent
  done;
  t.top <- live;
  t.nfree <- 0;
  let ncap = pow2_above 16 (2 * live) in
  if ncap < t.cap then begin
    t.fv <- Array.sub t.fv 0 (4 * ncap);
    t.iv <- Array.sub t.iv 0 (3 * ncap);
    if Array.length t.freev > ncap then t.freev <- [||];
    t.cap <- ncap
  end;
  let m = Hashtbl.create (Int.max 16 live) in
  for s = 0 to live - 1 do
    Hashtbl.replace m t.iv.(ix s i_id) s
  done;
  t.slot_of <- m;
  for i = 0 to t.nsvc - 1 do
    t.svc.(i) <- map.(t.svc.(i))
  done;
  Keyed_heap.remap_ids t.queue map

let maybe_compact t = if t.cap > 64 && 4 * t.nlive < t.cap then compact t

(* First arrival of an unknown id: allocate a slot (recycling the free
   list before extending the high-water mark) and seed the client's
   tags. Out-of-line: once per client lifetime. *)
let register t ~id ~weight =
  if t.nlive >= max_clients then
    invalid_arg
      (Printf.sprintf "Sfq.arrive: %d live clients exceeds the table limit"
         t.nlive);
  let slot =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.freev.(t.nfree)
    end
    else begin
      let s = t.top in
      if s >= t.cap then grow t s;
      t.top <- t.top + 1;
      s
    end
  in
  t.iv.(ix slot i_id) <- id;
  Hashtbl.replace t.slot_of id slot;
  t.nlive <- t.nlive + 1;
  t.fv.(fx slot f_weight) <- weight;
  t.fv.(fx slot f_donated) <- 0.;
  (* F_0 = 0, so S_1 = max(v(t), 0) — rule 1 with j = 1. *)
  t.fv.(fx slot f_start) <- fmax t.clock.vt 0.;
  t.fv.(fx slot f_finish) <- 0.;
  t.iv.(ix slot i_state) <- st_runnable;
  t.nrun <- t.nrun + 1;
  enqueue t slot

(* Shared blocked -> runnable transition (rule 1: S = max(v, F)). *)
let rewake t slot weight =
  (* A blocked client may return with a different share (e.g. its class
     weight was re-administered while it slept): the new weight governs
     the quantum it is about to request. *)
  t.fv.(fx slot f_weight) <- weight;
  t.fv.(fx slot f_start) <- fmax t.clock.vt t.fv.(fx slot f_finish);
  t.iv.(ix slot i_state) <- st_runnable;
  t.nrun <- t.nrun + 1;
  enqueue t slot

(* [weight] arrives boxed from every caller (a Hashtbl value or a
   mutable field of a mixed record), so passing it on costs nothing;
   it is unboxed only by the float-array store that keeps it. *)
let arrive t ~id ~weight =
  if weight <= 0. then invalid_arg "Sfq.arrive: weight <= 0";
  if id < 0 then invalid_arg "Sfq.arrive: negative client id";
  let slot = slot_lookup t id in
  if slot < 0 then register t ~id ~weight
  else if t.iv.(ix slot i_state) = st_blocked then rewake t slot weight
(* already runnable: idempotent, the weight argument is ignored *)

let revoke t ~blocked =
  match Hashtbl.find_opt t.donations blocked with
  | None -> ()
  | Some (recipient, amount) ->
    let rslot = slot_lookup t recipient in
    if rslot >= 0 then
      t.fv.(fx rslot f_donated) <- t.fv.(fx rslot f_donated) -. amount;
    Hashtbl.remove t.donations blocked

let depart t ~id =
  let slot = slot_lookup t id in
  if slot >= 0 then begin
    if claim_index t slot >= 0 then invalid_arg "Sfq.depart: client in service";
    if t.iv.(ix slot i_state) = st_runnable then begin
      t.nrun <- t.nrun - 1;
      (* A runnable, not-in-service client has exactly one queued heap
         entry; it just went stale. *)
      Keyed_heap.invalidate t.queue
    end;
    t.iv.(ix slot i_gen) <- fresh_gen t;
    (* Weight conservation: give back any weight this client donated, and
       drop donations aimed at it (their blockers re-donate on the next
       ownership change, see Kernel.unlock_mutex). *)
    revoke t ~blocked:id;
    Hashtbl.fold
      (fun b (r, _) acc -> if r = id then b :: acc else acc)
      t.donations []
    |> List.iter (fun b -> revoke t ~blocked:b);
    t.iv.(ix slot i_state) <- st_absent;
    t.iv.(ix slot i_id) <- -1;
    Hashtbl.remove t.slot_of id;
    free_slot t slot;
    t.nlive <- t.nlive - 1;
    note_idle t;
    maybe_compact t
  end

let set_weight t ~id ~weight =
  if weight <= 0. then invalid_arg "Sfq.set_weight: weight <= 0";
  let slot = slot_checked t id in
  t.fv.(fx slot f_weight) <- weight

let select t =
  if t.nsvc >= t.servers then
    invalid_arg "Sfq.select: previous selection not yet charged";
  let slot = Keyed_heap.pop_valid t.queue in
  if slot < 0 then -1
  else begin
    t.svc.(t.nsvc) <- slot;
    t.nsvc <- t.nsvc + 1;
    (* Rule 2: while busy, v(t) is the start tag of the quantum in
       service.  With several claims outstanding this is the most
       recently selected one, kept monotone explicitly: at servers > 1
       a client pinned at its one-CPU rate cap legitimately carries
       start tags that lag v(t) (its finish tags advance at
       service/weight < the aggregate virtual rate), so a freshly
       popped tag can sit below the clock.  At servers = 1 select and
       charge strictly alternate, every enqueued tag is >= the vt it
       was assigned under, and the fmax is inert. *)
    t.clock.vt <- fmax t.clock.vt t.klast.(0);
    let id = t.iv.(ix slot i_id) in
    (if !(t.obs_on) then
       match t.obs with
       | None -> ()
       | Some s ->
         t.obs_stage.(0) <- t.clock.vt;
         t.obs_stage.(1) <- 0.;
         Hsfq_obs.Trace.emitf s ~code:Hsfq_obs.Trace.ev_pick ~a:t.obs_node
           ~b:id ~c:0 ~d:0);
    id
  end

let rec claim_of_id t ~id i =
  if i >= t.nsvc then -1
  else if t.iv.(ix t.svc.(i) i_id) = id then i
  else claim_of_id t ~id (i + 1)

(* The claimed slots know their ids, so charge needs no hash lookup:
   it scans the (CPU-count-bounded) claim set. Swap-removal keeps the
   set dense without disturbing the other outstanding claims. The
   integer service becomes a float here, in a local the compiler keeps
   unboxed. *)
let charge t ~id ~service ~runnable =
  let ci = claim_of_id t ~id 0 in
  if ci < 0 then invalid_arg "Sfq.charge: client not in service";
  if service < 0 then invalid_arg "Sfq.charge: negative service";
  let slot = t.svc.(ci) in
  let service = float_of_int service in
  t.nsvc <- t.nsvc - 1;
  t.svc.(ci) <- t.svc.(t.nsvc);
  t.svc.(t.nsvc) <- -1;
  let ew = effective_weight t slot in
  let finish = t.fv.(fx slot f_start) +. (service /. ew) in
  t.fv.(fx slot f_finish) <- finish;
  if finish > t.clock.max_finish then t.clock.max_finish <- finish;
  (if !(t.obs_on) then
     match t.obs with
     | None -> ()
     | Some s ->
       let id = t.iv.(ix slot i_id) in
       t.obs_stage.(0) <- service;
       t.obs_stage.(1) <- finish;
       Hsfq_obs.Trace.emitf s ~code:Hsfq_obs.Trace.ev_tag_update ~a:t.obs_node
         ~b:id
         ~c:(if runnable then 1 else 0)
         ~d:0;
       (* Charge-sample payloads go through the metrics staging cells
          (cached in [set_obs]) — float arguments would box. *)
       t.obs_mstage.(0) <- service;
       t.obs_mstage.(1) <- service /. ew;
       t.obs_mstage.(2) <- t.clock.vt;
       Hsfq_obs.Metrics.charge_sample_staged (Hsfq_obs.Trace.metrics s)
         ~node:id);
  if runnable then begin
    (* A continuously backlogged client keeps its own tag stream:
       start <- finish, NOT fmax vt finish.  Clamping to v(t) here
       would erase the lag a weight-heavy client accumulates while
       saturating its one-CPU cap at servers > 1 and collapse the
       allocation to equal shares; the capped max-min (feasible-
       weight) split requires the lagging tags to keep their claim to
       the next quantum.  At servers = 1 the clamp was inert anyway:
       v(t) equals this slot's start tag while it is in service, so
       finish >= v(t) always.  Clients re-arriving from blocked still
       clamp to v(t) in [arrive], which is what forgives banked
       credit. *)
    t.fv.(fx slot f_start) <- finish;
    enqueue t slot
  end
  else begin
    t.iv.(ix slot i_state) <- st_blocked;
    t.iv.(ix slot i_gen) <- fresh_gen t;
    t.nrun <- t.nrun - 1;
    note_idle t
  end

let block t ~id =
  let slot = slot_lookup t id in
  if slot >= 0 then begin
    if claim_index t slot >= 0 then
      invalid_arg "Sfq.block: client in service (use charge ~runnable:false)";
    if t.iv.(ix slot i_state) = st_runnable then begin
      t.iv.(ix slot i_state) <- st_blocked;
      t.iv.(ix slot i_gen) <- fresh_gen t;
      t.nrun <- t.nrun - 1;
      Keyed_heap.invalidate t.queue;
      note_idle t
    end
  end

(* No re-key of an already-queued recipient is needed: the ready queue is
   ordered by start tags, and a start tag never depends on the weight —
   [S = max(v, F)] (rule 1). The donated weight only changes the divisor
   of the *next* finish-tag computation in [charge], matching the
   weight-change semantics ([set_weight] also takes effect on the next
   quantum). So the queued key stays equal to the start tag at all
   times. *)
let donate t ~blocked ~recipient =
  if blocked = recipient then invalid_arg "Sfq.donate: self-donation";
  let bslot = slot_checked t blocked in
  let rslot = slot_checked t recipient in
  revoke t ~blocked;
  let amount = t.fv.(fx bslot f_weight) in
  t.fv.(fx rslot f_donated) <- t.fv.(fx rslot f_donated) +. amount;
  Hashtbl.replace t.donations blocked (recipient, amount)

let mem t ~id = known t id

let start_tag t ~id =
  let slot = slot_checked t id in
  t.fv.(fx slot f_start)

let finish_tag t ~id =
  let slot = slot_checked t id in
  t.fv.(fx slot f_finish)

let is_runnable t ~id =
  let slot = slot_checked t id in
  t.iv.(ix slot i_state) = st_runnable

let backlogged t = t.nrun
let virtual_time t = t.clock.vt

(* ------- diagnostics / audit probes (lib/check, doc/INVARIANTS.md) ------- *)

let clients t =
  let acc = ref [] in
  for s = t.top - 1 downto 0 do
    if t.iv.(ix s i_id) >= 0 then acc := t.iv.(ix s i_id) :: !acc
  done;
  List.sort Int.compare !acc

let weight t ~id =
  let slot = slot_checked t id in
  t.fv.(fx slot f_weight)

let effective_weight_of t ~id =
  let slot = slot_checked t id in
  effective_weight t slot

let in_service t =
  if t.nsvc = 0 then None else Some t.iv.(ix t.svc.(t.nsvc - 1) i_id)

let in_service_ids t =
  let acc = ref [] in
  for i = t.nsvc - 1 downto 0 do
    acc := t.iv.(ix t.svc.(i) i_id) :: !acc
  done;
  !acc

let max_finish_tag t = t.clock.max_finish

let donations t =
  Hashtbl.fold
    (fun blocked (recipient, amount) acc -> (blocked, recipient, amount) :: acc)
    t.donations []

let capacity t = t.cap
let live_clients t = t.nlive

(* Deterministic retained-words accounting (array lengths and bucket
   counts, not GC sampling): 4 unboxed floats and 3 ints per slot, the
   claim set, the free stack, the id map, and the ready queue. *)
let footprint_words t =
  let stats = Hashtbl.stats t.slot_of in
  (7 * t.cap)
  + Array.length t.svc
  + Array.length t.freev
  + stats.Hashtbl.num_buckets
  + (3 * stats.Hashtbl.num_bindings)
  + Keyed_heap.footprint_words t.queue
