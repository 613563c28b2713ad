(* Indexed binary min-heap on (time, seq).

   The heap columns [times], [seqs] and [slot_at] are indexed by heap
   position and hold only ints, so a sift level moves three immediates
   and updates one [pos] entry: no write barrier. An event's payload
   lives in a slot: [thunks.(s)] is written once at [schedule] and
   cleared once at fire or cancel, and [pos.(s)] maps the slot back to
   its heap position, so [cancel] removes the entry eagerly (sift up or
   down from the vacated position) and [pending] is the heap size.

   [slot_at] is a permutation of the slots: positions [0, size) are the
   heap and positions [size, cap) park the free slots, the most recently
   freed one at [size], where the next [schedule] picks it up.

   Handle recycling: each slot owns at most one handle record
   ([handles.(s)], [null] until the slot's first use), reused by every
   later event in that slot. A record is dead once its event fired or
   was cancelled ([hslot] negative) and waits with its slot for reuse.
   Firing is therefore the last use of a handle, the same contract
   cancellation always had: callers that keep a handle clear their
   reference from inside the fired thunk (the kernel does) or never
   touch it again.

   Each record carries a small identity ([hid]) assigned when the record
   is first allocated and kept across reuse, so tests (and diagnostics)
   can observe reuse without comparing physical equality. *)

let fired = -1
let cancelled = -2

type t = {
  mutable times : int array; (* by heap position; Time.t is int ns *)
  mutable seqs : int array;
  mutable slot_at : int array; (* heap position -> slot; free slots past [size] *)
  mutable pos : int array; (* slot -> heap position, for live slots *)
  mutable thunks : (unit -> unit) array; (* by slot *)
  mutable handles : handle array; (* by slot *)
  mutable size : int;
  mutable next_seq : int;
  mutable next_hid : int; (* identity for the next fresh handle record *)
  mutable taken : unit -> unit; (* thunk of the last [take_until] hit *)
}

and handle = {
  mutable hslot : int; (* slot while pending, else [fired] or [cancelled] *)
  hid : int;
  owner : t;
}

let nothing () = ()

let create () =
  {
    times = [||];
    seqs = [||];
    slot_at = [||];
    pos = [||];
    thunks = [||];
    handles = [||];
    size = 0;
    next_seq = 0;
    next_hid = 0;
    taken = nothing;
  }

let null = { hslot = fired; hid = -1; owner = create () }
let is_null h = h.hid < 0
let handle_id h = h.hid
let is_cancelled h = h.hslot = cancelled

(* Cold path of [schedule]: the slot's first use gets a fresh record
   with a fresh identity. *)
let new_handle t s =
  let h = { hslot = s; hid = t.next_hid; owner = t } in
  t.next_hid <- t.next_hid + 1;
  t.handles.(s) <- h;
  h

(* Only called with every slot in use ([size] = capacity): the new slots
   go to the free tail of [slot_at], lowest first. *)
let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.slot_at <- Array.init ncap (fun i -> if i < cap then t.slot_at.(i) else i);
  t.pos <- extend t.pos 0;
  t.thunks <- extend t.thunks nothing;
  t.handles <- extend t.handles null

let rec pow2_above c n = if c >= n then c else pow2_above (2 * c) n

(* Cut every column to [ncap] slots (more than the live count). Live
   entries sitting in slots at or past [ncap] move to free slots below
   it (a slot is live iff its record points back at it); heap positions,
   times and seqs stay put, so the firing order cannot change. Records
   parked in the cut-off slots go to the GC. *)
let shrink t ncap =
  let live s = t.handles.(s).hslot = s in
  let f = ref 0 in
  for i = 0 to t.size - 1 do
    let s = t.slot_at.(i) in
    if s >= ncap then begin
      while live !f do
        incr f
      done;
      let h = t.handles.(s) in
      h.hslot <- !f;
      t.handles.(!f) <- h;
      t.thunks.(!f) <- t.thunks.(s);
      t.pos.(!f) <- i;
      t.slot_at.(i) <- !f
    end
  done;
  let k = ref t.size in
  for s = 0 to ncap - 1 do
    if not (live s) then begin
      t.slot_at.(!k) <- s;
      incr k
    end
  done;
  t.times <- Array.sub t.times 0 ncap;
  t.seqs <- Array.sub t.seqs 0 ncap;
  t.slot_at <- Array.sub t.slot_at 0 ncap;
  t.pos <- Array.sub t.pos 0 ncap;
  t.thunks <- Array.sub t.thunks 0 ncap;
  t.handles <- Array.sub t.handles 0 ncap

(* Capacity release on the fire and cancel paths, same policy as
   [Keyed_heap]: once occupancy falls below a quarter of capacity,
   shrink to a power of two leaving 2x headroom. The guard is a couple
   of loads and compares; the O(n) copies are amortized O(1) per
   operation by the trigger/post-shrink hysteresis gap. Capacity under
   1024 slots is never released: hysteresis cannot protect a queue that
   oscillates between empty and a few hundred in-flight events every
   cycle (the churn micro-benchmark's shape), and arrays that small
   don't pin memory worth reclaiming. *)
let shrink_if_sparse t =
  let cap = Array.length t.times in
  if cap > 1024 && 4 * t.size < cap then shrink t (pow2_above 16 (2 * t.size))

(* Hole-based sifting: the moving entry rides in the arguments and is
   written once, at its final position. Ordering is strict: earlier time
   first, FIFO (schedule order) among events set for the same instant. *)
let place t i tm sq s =
  t.times.(i) <- tm;
  t.seqs.(i) <- sq;
  t.slot_at.(i) <- s;
  t.pos.(s) <- i

(* The entry at position [p] orders after / before (tm, sq). *)
let after t p tm sq =
  let tp = t.times.(p) in
  tp > tm || (tp = tm && t.seqs.(p) > sq)

let before t p tm sq =
  let tp = t.times.(p) in
  tp < tm || (tp = tm && t.seqs.(p) < sq)

let rec sift_up t i tm sq s =
  if i = 0 then place t i tm sq s
  else begin
    let p = (i - 1) / 2 in
    if after t p tm sq then begin
      t.times.(i) <- t.times.(p);
      t.seqs.(i) <- t.seqs.(p);
      let sp = t.slot_at.(p) in
      t.slot_at.(i) <- sp;
      t.pos.(sp) <- i;
      sift_up t p tm sq s
    end
    else place t i tm sq s
  end

let rec sift_down t i tm sq s =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i tm sq s
  else begin
    let r = l + 1 in
    let c = if r < t.size && before t r t.times.(l) t.seqs.(l) then r else l in
    if before t c tm sq then begin
      t.times.(i) <- t.times.(c);
      t.seqs.(i) <- t.seqs.(c);
      let sc = t.slot_at.(c) in
      t.slot_at.(i) <- sc;
      t.pos.(sc) <- i;
      sift_down t c tm sq s
    end
    else place t i tm sq s
  end

(* Take the entry at heap position [i] out: its slot joins the free tail
   of [slot_at] and the last entry refills the hole, moving up if it
   orders before the hole's parent and down otherwise. *)
let remove_at t i =
  let n = t.size - 1 in
  let s = t.slot_at.(i) in
  t.size <- n;
  if i < n then begin
    let tm = t.times.(n) and sq = t.seqs.(n) and sl = t.slot_at.(n) in
    t.slot_at.(n) <- s;
    if i > 0 && after t ((i - 1) / 2) tm sq then sift_up t i tm sq sl
    else sift_down t i tm sq sl
  end;
  shrink_if_sparse t

let schedule t ~at thunk =
  if t.size = Array.length t.times then grow t;
  let i = t.size in
  let s = t.slot_at.(i) in
  let h = t.handles.(s) in
  let h = if is_null h then new_handle t s else h in
  h.hslot <- s;
  t.thunks.(s) <- thunk;
  let sq = t.next_seq in
  t.next_seq <- sq + 1;
  t.size <- i + 1;
  sift_up t i at sq s;
  h

(* Retire slot [s]'s event: drop the thunk reference so it cannot leak
   through the column, and mark the record dead. *)
let release t s state =
  t.thunks.(s) <- nothing;
  t.handles.(s).hslot <- state

let cancel h =
  let s = h.hslot in
  if s >= 0 then begin
    let t = h.owner in
    let i = t.pos.(s) in
    release t s cancelled;
    remove_at t i
  end

let next_time t = if t.size = 0 then None else Some t.times.(0)

(* Fire the top entry: record its thunk in [t.taken], retire its slot
   and remove it from the heap. Returns its time. *)
let fire_top t =
  let at = t.times.(0) and s = t.slot_at.(0) in
  t.taken <- t.thunks.(s);
  release t s fired;
  remove_at t 0;
  at

let take_until t ~horizon =
  if t.size > 0 && t.times.(0) <= horizon then fire_top t
  else begin
    t.taken <- nothing;
    -1
  end

let taken t = t.taken

let pop t =
  if t.size = 0 then None
  else begin
    let at = fire_top t in
    Some (at, t.taken)
  end

let pending t = t.size
let capacity t = Array.length t.times

let retained_handles t =
  Array.fold_left (fun n h -> if is_null h then n else n + 1) 0 t.handles
  - t.size

(* Deterministic retained-words accounting: six columns and the parked
   handle records (4 words each incl. header). *)
let footprint_words t =
  (6 * Array.length t.times) + (4 * retained_handles t) + 12
