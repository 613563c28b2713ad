let k_slice = 0
let k_workload = 1
let k_leaf_select = 2
let k_leaf_charge = 3
let k_leaf_enqueue = 4
let k_leaf_dequeue = 5
let k_leaf_other = 6
let k_control = 7
let k_spawn = 8
let k_kill = 9
let k_mknod = 10
let k_rmnod = 11
let nkinds = 12

let kind_names =
  [|
    "slice"; "workload"; "leaf.select"; "leaf.charge"; "leaf.enqueue";
    "leaf.dequeue"; "leaf.other"; "control"; "kernel.spawn"; "kernel.kill";
    "hierarchy.mknod"; "hierarchy.rmnod";
  |]

type t = {
  count : int array;
  ns : int array;
  words : int array;
  disc_ns : int array;
  disc_calls : int array;
  disc_decisions : int array;
  cap : int;
  mutable n : int;
  mutable total : int;
  s_kind : int array;
  s_start : int array;
  s_stop : int array;
  s_parent : int array;
  mutable slice_id : int; (* log index of the open slice span, or -1 *)
  mutable slice_start : int;
}

let create ?(capacity = 1 lsl 18) ~disciplines () =
  {
    count = Array.make nkinds 0;
    ns = Array.make nkinds 0;
    words = Array.make nkinds 0;
    disc_ns = Array.make disciplines 0;
    disc_calls = Array.make disciplines 0;
    disc_decisions = Array.make disciplines 0;
    cap = capacity;
    n = 0;
    total = 0;
    s_kind = Array.make capacity 0;
    s_start = Array.make capacity 0;
    s_stop = Array.make capacity 0;
    s_parent = Array.make capacity 0;
    slice_id = -1;
    slice_start = 0;
  }

let log t ~kind ~start ~stop ~parent =
  t.total <- t.total + 1;
  if t.n < t.cap then begin
    let i = t.n in
    t.s_kind.(i) <- kind;
    t.s_start.(i) <- start;
    t.s_stop.(i) <- stop;
    t.s_parent.(i) <- parent;
    t.n <- i + 1;
    i
  end
  else -1

let record t ~kind ~start ~stop ~words =
  t.count.(kind) <- t.count.(kind) + 1;
  t.ns.(kind) <- t.ns.(kind) + (stop - start);
  t.words.(kind) <- t.words.(kind) + words;
  ignore (log t ~kind ~start ~stop ~parent:t.slice_id : int)

let record_leaf t ~kind ~disc ~start ~stop ~words =
  record t ~kind ~start ~stop ~words;
  t.disc_ns.(disc) <- t.disc_ns.(disc) + (stop - start);
  t.disc_calls.(disc) <- t.disc_calls.(disc) + 1

let leaf_decision t ~disc =
  t.disc_decisions.(disc) <- t.disc_decisions.(disc) + 1

(* The slice span is logged when it opens (its children point at it) and
   its end is patched in when it closes. *)
let enter_slice t start =
  t.slice_start <- start;
  t.slice_id <- log t ~kind:k_slice ~start ~stop:start ~parent:(-1)

let leave_slice t stop =
  t.count.(k_slice) <- t.count.(k_slice) + 1;
  t.ns.(k_slice) <- t.ns.(k_slice) + (stop - t.slice_start);
  if t.slice_id >= 0 then t.s_stop.(t.slice_id) <- stop;
  t.slice_id <- -1

let count t k = t.count.(k)
let ns t k = t.ns.(k)
let words t k = t.words.(k)
let disc_ns t d = t.disc_ns.(d)
let disc_decisions t d = t.disc_decisions.(d)
let disc_calls t d = t.disc_calls.(d)

(* Start the measured region: forget the warm-up's per-decision spans,
   keep the structural writes (set-up is where most of them happen). *)
let reset_region t =
  List.iter
    (fun k ->
      t.count.(k) <- 0;
      t.ns.(k) <- 0;
      t.words.(k) <- 0)
    [ k_slice; k_workload; k_leaf_select; k_leaf_charge; k_leaf_enqueue;
      k_leaf_dequeue; k_leaf_other; k_control ];
  Array.fill t.disc_ns 0 (Array.length t.disc_ns) 0;
  Array.fill t.disc_calls 0 (Array.length t.disc_calls) 0;
  Array.fill t.disc_decisions 0 (Array.length t.disc_decisions) 0
let recorded t = t.n
let total t = t.total

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tkind\tstart_ns\tend_ns\tparent\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\n" i kind_names.(t.s_kind.(i))
          t.s_start.(i) t.s_stop.(i) t.s_parent.(i)
      done)
