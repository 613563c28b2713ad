open Hsfq_sched

module Make (F : Scheduler_intf.FAIR) = struct
  type t = {
    f : F.t;
    node : string;
    sink : Invariant.sink;
    (* Mirror of the ready set, maintained from the call protocol alone:
       the wrapped algorithm must agree with it at every step. *)
    ready : (int, unit) Hashtbl.t;
    mutable pending : int option; (* selected, not yet charged *)
    mutable last_vt : float;
  }

  let algorithm_name = F.algorithm_name ^ "+audit"

  let wrap ?node ?sink f =
    {
      f;
      node = (match node with Some n -> n | None -> F.algorithm_name);
      sink =
        (match sink with
        | Some s -> s
        | None -> Invariant.create ~policy:Raise ());
      ready = Hashtbl.create 16;
      pending = None;
      last_vt = F.virtual_time f;
    }

  let create ?rng ?quantum_hint () = wrap (F.create ?rng ?quantum_hint ())
  let inner t = t.f
  let sink t = t.sink

  let post t ~event =
    let chk inv = Invariant.check t.sink ~invariant:inv ~node:t.node ~event in
    let vt = F.virtual_time t.f in
    chk "vt-monotone" (vt >= t.last_vt) "v(t) went backwards: %g -> %g"
      t.last_vt vt;
    t.last_vt <- vt;
    let n = Hashtbl.length t.ready in
    chk "nrun-consistent"
      (F.backlogged t.f = n)
      "backlogged=%d but the call protocol implies %d runnable clients"
      (F.backlogged t.f) n

  let arrive t ~id ~weight =
    F.arrive t.f ~id ~weight;
    Hashtbl.replace t.ready id ();
    post t ~event:(Printf.sprintf "arrive id=%d w=%g" id weight)

  let depart t ~id =
    F.depart t.f ~id;
    Hashtbl.remove t.ready id;
    if t.pending = Some id then t.pending <- None;
    post t ~event:(Printf.sprintf "depart id=%d" id)

  let set_weight t ~id ~weight =
    F.set_weight t.f ~id ~weight;
    post t ~event:(Printf.sprintf "set_weight id=%d w=%g" id weight)

  let select t =
    let id = F.select t.f in
    let event =
      if id < 0 then "select -> none" else Printf.sprintf "select -> id=%d" id
    in
    let chk inv = Invariant.check t.sink ~invariant:inv ~node:t.node ~event in
    chk "work-conserving" (t.pending = None)
      "select with a selection already pending";
    if id < 0 then
      chk "work-conserving"
        (Hashtbl.length t.ready = 0)
        "select returned none with %d clients runnable"
        (Hashtbl.length t.ready)
    else begin
      chk "work-conserving" (Hashtbl.mem t.ready id)
        "selected client %d is not runnable" id;
      t.pending <- Some id
    end;
    post t ~event;
    id

  let charge t ~id ~service ~runnable =
    F.charge t.f ~id ~service ~runnable;
    let event =
      Printf.sprintf "charge id=%d l=%d runnable=%b" id service runnable
    in
    Invariant.check t.sink ~invariant:"work-conserving" ~node:t.node ~event
      (t.pending = Some id)
      "charge of client %d but the pending selection is %s" id
      (match t.pending with None -> "none" | Some s -> string_of_int s);
    t.pending <- None;
    if not runnable then Hashtbl.remove t.ready id;
    post t ~event

  let backlogged t = F.backlogged t.f
  let virtual_time t = F.virtual_time t.f
end

module Sfq = struct
  module S = Hsfq_core.Sfq

  type t = { s : S.t; node : string; sink : Invariant.sink }

  let wrap ?(node = "sfq") ?sink s =
    {
      s;
      node;
      sink =
        (match sink with
        | Some k -> k
        | None -> Invariant.create ~policy:Raise ());
    }

  let create ?node ?sink () = wrap ?node ?sink (S.create ())
  let inner t = t.s
  let sink t = t.sink

  let guarded t ev f =
    let pre = Sfq_rules.snapshot t.s in
    let r = f t.s in
    Sfq_rules.check_transition ~node:t.node t.sink ~pre t.s (ev r);
    r

  let arrive t ~id ~weight =
    guarded t (fun () -> Sfq_rules.Arrive { id; weight })
      (fun s -> S.arrive s ~id ~weight)

  let depart t ~id =
    guarded t (fun () -> Sfq_rules.Depart id) (fun s -> S.depart s ~id)

  let set_weight t ~id ~weight =
    guarded t
      (fun () -> Sfq_rules.Set_weight { id; weight })
      (fun s -> S.set_weight s ~id ~weight)

  let select t =
    guarded t
      (fun id -> Sfq_rules.Select (if id < 0 then None else Some id))
      S.select

  let charge t ~id ~service ~runnable =
    guarded t
      (fun () -> Sfq_rules.Charge { id; service; runnable })
      (fun s -> S.charge s ~id ~service ~runnable)

  let block t ~id =
    guarded t (fun () -> Sfq_rules.Block id) (fun s -> S.block s ~id)

  let donate t ~blocked ~recipient =
    guarded t
      (fun () -> Sfq_rules.Donate { blocked; recipient })
      (fun s -> S.donate s ~blocked ~recipient)

  let revoke t ~blocked =
    guarded t (fun () -> Sfq_rules.Revoke blocked)
      (fun s -> S.revoke s ~blocked)

  let backlogged t = S.backlogged t.s
  let virtual_time t = S.virtual_time t.s
  let start_tag t ~id = S.start_tag t.s ~id
  let finish_tag t ~id = S.finish_tag t.s ~id
  let is_runnable t ~id = S.is_runnable t.s ~id
  let mem t ~id = S.mem t.s ~id
end
