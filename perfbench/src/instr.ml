open Hsfq_kernel

(* Each wrapper reads the minor-word counter and then the clock on entry,
   and the clock and then the counter on exit, so a span's interval holds
   as little of the wrapper's own cost as possible.  The bodies are
   spelled out per field: a shared helper taking the float word count
   would box it on every call. *)

let workload sp (w : Workload_intf.t) : Workload_intf.t =
 fun ~now ->
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let a = w ~now in
  let t1 = Clock.now_ns () in
  let words = int_of_float (Gc.minor_words () -. w0) in
  Spans.record sp ~kind:Spans.k_workload ~start:t0 ~stop:t1 ~words;
  a

let leaf sp ~disc (lf : Leaf_sched.t) : Leaf_sched.t =
  let other = Spans.k_leaf_other in
  {
    lf with
    enqueue =
      (fun ~now tid ->
        let w0 = Gc.minor_words () in
        let t0 = Clock.now_ns () in
        lf.enqueue ~now tid;
        let t1 = Clock.now_ns () in
        let words = int_of_float (Gc.minor_words () -. w0) in
        Spans.record_leaf sp ~kind:Spans.k_leaf_enqueue ~disc ~start:t0 ~stop:t1
          ~words);
    dequeue =
      (fun ~now tid ->
        let w0 = Gc.minor_words () in
        let t0 = Clock.now_ns () in
        lf.dequeue ~now tid;
        let t1 = Clock.now_ns () in
        let words = int_of_float (Gc.minor_words () -. w0) in
        Spans.record_leaf sp ~kind:Spans.k_leaf_dequeue ~disc ~start:t0 ~stop:t1
          ~words);
    select_id =
      (fun ~now ->
        let w0 = Gc.minor_words () in
        let t0 = Clock.now_ns () in
        let r = lf.select_id ~now in
        let t1 = Clock.now_ns () in
        let words = int_of_float (Gc.minor_words () -. w0) in
        Spans.record_leaf sp ~kind:Spans.k_leaf_select ~disc ~start:t0 ~stop:t1
          ~words;
        if r >= 0 then Spans.leaf_decision sp ~disc;
        r);
    charge =
      (fun ~now tid ~service ~runnable ->
        let w0 = Gc.minor_words () in
        let t0 = Clock.now_ns () in
        lf.charge ~now tid ~service ~runnable;
        let t1 = Clock.now_ns () in
        let words = int_of_float (Gc.minor_words () -. w0) in
        Spans.record_leaf sp ~kind:Spans.k_leaf_charge ~disc ~start:t0 ~stop:t1
          ~words);
    quantum_ns_of =
      (fun tid ->
        let w0 = Gc.minor_words () in
        let t0 = Clock.now_ns () in
        let q = lf.quantum_ns_of tid in
        let t1 = Clock.now_ns () in
        let words = int_of_float (Gc.minor_words () -. w0) in
        Spans.record_leaf sp ~kind:other ~disc ~start:t0 ~stop:t1 ~words;
        q);
    preempts =
      (fun ~waker ~running ->
        let w0 = Gc.minor_words () in
        let t0 = Clock.now_ns () in
        let p = lf.preempts ~waker ~running in
        let t1 = Clock.now_ns () in
        let words = int_of_float (Gc.minor_words () -. w0) in
        Spans.record_leaf sp ~kind:other ~disc ~start:t0 ~stop:t1 ~words;
        p);
    backlogged =
      (fun () ->
        let w0 = Gc.minor_words () in
        let t0 = Clock.now_ns () in
        let n = lf.backlogged () in
        let t1 = Clock.now_ns () in
        let words = int_of_float (Gc.minor_words () -. w0) in
        Spans.record_leaf sp ~kind:other ~disc ~start:t0 ~stop:t1 ~words;
        n);
    detach =
      (fun tid ->
        let w0 = Gc.minor_words () in
        let t0 = Clock.now_ns () in
        lf.detach tid;
        let t1 = Clock.now_ns () in
        let words = int_of_float (Gc.minor_words () -. w0) in
        Spans.record_leaf sp ~kind:other ~disc ~start:t0 ~stop:t1 ~words);
    second_tick =
      (fun () ->
        let w0 = Gc.minor_words () in
        let t0 = Clock.now_ns () in
        lf.second_tick ();
        let t1 = Clock.now_ns () in
        let words = int_of_float (Gc.minor_words () -. w0) in
        Spans.record_leaf sp ~kind:other ~disc ~start:t0 ~stop:t1 ~words);
    donate =
      (fun ~blocked ~recipient ->
        let w0 = Gc.minor_words () in
        let t0 = Clock.now_ns () in
        lf.donate ~blocked ~recipient;
        let t1 = Clock.now_ns () in
        let words = int_of_float (Gc.minor_words () -. w0) in
        Spans.record_leaf sp ~kind:other ~disc ~start:t0 ~stop:t1 ~words);
    revoke =
      (fun ~blocked ->
        let w0 = Gc.minor_words () in
        let t0 = Clock.now_ns () in
        lf.revoke ~blocked;
        let t1 = Clock.now_ns () in
        let words = int_of_float (Gc.minor_words () -. w0) in
        Spans.record_leaf sp ~kind:other ~disc ~start:t0 ~stop:t1 ~words);
  }

let noop_leaf : Leaf_sched.t =
  {
    name = "noop";
    enqueue = (fun ~now:_ _ -> ());
    dequeue = (fun ~now:_ _ -> ());
    select = (fun ~now:_ -> None);
    select_id = (fun ~now:_ -> -1);
    charge = (fun ~now:_ _ ~service:_ ~runnable:_ -> ());
    quantum_of = (fun _ -> None);
    quantum_ns_of = (fun _ -> -1);
    preempts = (fun ~waker:_ ~running:_ -> false);
    backlogged = (fun () -> 0);
    detach = (fun _ -> ());
    second_tick = (fun () -> ());
    donate = (fun ~blocked:_ ~recipient:_ -> ());
    revoke = (fun ~blocked:_ -> ());
    sfq_probe = None;
  }

let calibrate () =
  let sp = Spans.create ~capacity:1 ~disciplines:1 () in
  let lf = leaf sp ~disc:0 noop_leaf in
  let n = 200_000 in
  for _ = 1 to n do
    ignore (lf.select_id ~now:0 : int)
  done;
  let k = Spans.k_leaf_select in
  ( float_of_int (Spans.ns sp k) /. float_of_int (Spans.count sp k),
    float_of_int (Spans.words sp k) /. float_of_int (Spans.count sp k) )
