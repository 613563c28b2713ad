open Hsfq_core

type client_view = {
  cweight : float;
  ceff : float;
  cstart : float;
  cfinish : float;
  crunnable : bool;
}

type snapshot = {
  svt : float;
  sbacklogged : int;
  sin_service : int option;
  smax_finish : float;
  sclients : (int * client_view) list;
  sdonations : (int * int * float) list;
}

let view t id =
  {
    cweight = Sfq.weight t ~id;
    ceff = Sfq.effective_weight_of t ~id;
    cstart = Sfq.start_tag t ~id;
    cfinish = Sfq.finish_tag t ~id;
    crunnable = Sfq.is_runnable t ~id;
  }

let snapshot t =
  {
    svt = Sfq.virtual_time t;
    sbacklogged = Sfq.backlogged t;
    sin_service = Sfq.in_service t;
    smax_finish = Sfq.max_finish_tag t;
    sclients = List.map (fun id -> (id, view t id)) (Sfq.clients t);
    sdonations = Sfq.donations t;
  }

let snapshot_vt s = s.svt

type event =
  | Arrive of { id : int; weight : float }
  | Select of int option
  | Charge of { id : int; service : int; runnable : bool }
  | Block of int
  | Depart of int
  | Set_weight of { id : int; weight : float }
  | Donate of { blocked : int; recipient : int }
  | Revoke of int

let event_to_string = function
  | Arrive { id; weight } -> Printf.sprintf "arrive id=%d w=%g" id weight
  | Set_weight { id; weight } -> Printf.sprintf "set_weight id=%d w=%g" id weight
  | Select None -> "select -> none"
  | Select (Some id) -> Printf.sprintf "select -> id=%d" id
  | Charge { id; service; runnable } ->
    Printf.sprintf "charge id=%d l=%d runnable=%b" id service runnable
  | Block id -> Printf.sprintf "block id=%d" id
  | Depart id -> Printf.sprintf "depart id=%d" id
  | Donate { blocked; recipient } ->
    Printf.sprintf "donate blocked=%d recipient=%d" blocked recipient
  | Revoke id -> Printf.sprintf "revoke blocked=%d" id

(* Tolerant float equality for sums that may be re-associated (donation
   amounts) or recomputed (finish tags). *)
let feq a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs a +. Float.abs b)

let check_state_ev ~node ~event sink t =
  let chk inv = Invariant.check sink ~invariant:inv ~node ~event in
  let vt = Sfq.virtual_time t in
  let ids = Sfq.clients t in
  let views = List.map (fun id -> (id, view t id)) ids in
  chk "vt-monotone" (Float.is_finite vt && vt >= 0.) "v(t)=%g not a finite nonnegative value" vt;
  let in_service = Sfq.in_service_ids t in
  let claimed id = List.mem id in_service in
  chk "nrun-consistent"
    (List.length in_service <= Sfq.servers t)
    "%d claims outstanding with capacity %d" (List.length in_service)
    (Sfq.servers t);
  (* nrun matches the number of runnable clients. *)
  let nrun = List.length (List.filter (fun (_, c) -> c.crunnable) views) in
  chk "nrun-consistent"
    (Sfq.backlogged t = nrun)
    "backlogged=%d but %d clients are runnable" (Sfq.backlogged t) nrun;
  (* Per-client tag discipline (§3 rule 1): a runnable client's pending
     start tag is >= its finish tag (equal for a continuously
     backlogged client, whose quanta chain start <- finish).  The
     additional v(t) lower bound only holds with a single server, where
     select and charge alternate so every pending tag was assigned at
     or above the clock.  With several servers a client saturating its
     one-CPU rate cap legitimately lags v(t) — its finish tags advance
     at service/weight below the aggregate virtual rate — and clamping
     it back up is exactly the bug the capped max-min tests caught, so
     the bound is not asserted there.  A claimed client is exempt even
     at one server: it was selected when its tag was minimal, and a
     later claim may have advanced v past it. *)
  List.iter
    (fun (id, c) ->
      chk "tag-discipline"
        (Float.is_finite c.cstart && Float.is_finite c.cfinish)
        "client %d has non-finite tags S=%g F=%g" id c.cstart c.cfinish;
      chk "tag-discipline" (c.cweight > 0. && c.ceff > 0.)
        "client %d has non-positive weight w=%g eff=%g" id c.cweight c.ceff;
      if c.crunnable then begin
        chk "tag-discipline" (c.cstart >= c.cfinish)
          "runnable client %d has S=%g < F=%g" id c.cstart c.cfinish;
        if Sfq.servers t = 1 && not (claimed id) then
          chk "tag-discipline" (c.cstart >= vt)
            "runnable client %d has S=%g < v(t)=%g" id c.cstart vt
      end;
      chk "max-finish-bound"
        (Sfq.max_finish_tag t >= c.cfinish)
        "max finish tag %g < F_%d=%g" (Sfq.max_finish_tag t) id c.cfinish)
    views;
  (* The in-service quantum defines v(t) (§3 rule 2, busy case): with a
     single server, v equals the claimed start tag exactly; with several
     claims outstanding, v is the most recent (= maximum) claimed start,
     so every claimed start bounds it from below. *)
  List.iter
    (fun id ->
      match List.assoc_opt id views with
      | None -> chk "nrun-consistent" false "in-service client %d unknown" id
      | Some c ->
        chk "nrun-consistent" c.crunnable "in-service client %d not runnable" id;
        if Sfq.servers t = 1 then
          chk "vt-monotone"
            (feq vt c.cstart)
            "busy v(t)=%g differs from in-service start tag %g" vt c.cstart
        else
          chk "vt-monotone"
            (vt >= c.cstart || feq vt c.cstart)
            "v(t)=%g below claimed start tag %g" vt c.cstart)
    in_service;
  (* Donation/weight conservation (§4): every client's effective weight is
     its own weight plus exactly the outstanding donations aimed at it. *)
  let donations = Sfq.donations t in
  List.iter
    (fun (b, r, a) ->
      chk "donation-conservation" (a > 0.)
        "donation %d->%d has non-positive amount %g" b r a;
      chk "donation-conservation" (b <> r) "self-donation %d->%d recorded" b r;
      chk "donation-conservation"
        (List.mem_assoc b views)
        "donation from departed client %d" b;
      chk "donation-conservation"
        (List.mem_assoc r views)
        "donation to departed client %d" r)
    donations;
  List.iter
    (fun (id, c) ->
      let received =
        List.fold_left
          (fun acc (_, r, a) -> if r = id then acc +. a else acc)
          0. donations
      in
      chk "donation-conservation"
        (feq c.ceff (c.cweight +. received))
        "client %d: eff=%g but weight=%g + received=%g" id c.ceff c.cweight
        received)
    views

let check_state ?(node = "sfq") ?(event = "state") sink t =
  check_state_ev ~node ~event sink t

let pre_client pre id = List.assoc_opt id pre.sclients

let min_ready_start pre =
  List.fold_left
    (fun acc (_, c) ->
      if c.crunnable then
        Some (match acc with None -> c.cstart | Some m -> Float.min m c.cstart)
      else acc)
    None pre.sclients

let check_transition ?(node = "sfq") sink ~pre t ev =
  let event = event_to_string ev in
  let chk inv = Invariant.check sink ~invariant:inv ~node ~event in
  let vt = Sfq.virtual_time t in
  chk "vt-monotone" (vt >= pre.svt) "v(t) went backwards: %g -> %g" pre.svt vt;
  (* The max finish tag is a running max over all service ever granted
     (it defines v(t) when the scheduler drains), so it never recedes. *)
  chk "max-finish-bound"
    (Sfq.max_finish_tag t >= pre.smax_finish)
    "max finish tag went backwards: %g -> %g" pre.smax_finish
    (Sfq.max_finish_tag t);
  (match ev with
  | Arrive { id; weight } ->
    chk "tag-discipline" (Sfq.is_runnable t ~id) "arrived client %d not runnable" id;
    let start = Sfq.start_tag t ~id in
    (match pre_client pre id with
    | Some c when c.crunnable ->
      (* Idempotent arrival: nothing may move. *)
      chk "tag-discipline"
        (feq start c.cstart && feq (Sfq.finish_tag t ~id) c.cfinish)
        "arrive on runnable client %d moved tags" id
    | Some c ->
      (* Wake-up: S = max(v, F) (rule 1) at the wake-time v; the new
         weight is applied to the requested quantum. *)
      chk "tag-discipline"
        (feq start (Float.max pre.svt c.cfinish))
        "wake start tag %g, expected max(v=%g, F=%g)" start pre.svt c.cfinish;
      chk "tag-discipline"
        (feq (Sfq.weight t ~id) weight)
        "wake did not apply weight %g (has %g)" weight (Sfq.weight t ~id)
    | None ->
      chk "tag-discipline"
        (feq start (Float.max pre.svt 0.))
        "first start tag %g, expected max(v=%g, 0)" start pre.svt)
  | Select None ->
    chk "work-conserving" (pre.sbacklogged = 0)
      "select returned none with %d clients backlogged" pre.sbacklogged
  | Select (Some id) ->
    chk "work-conserving" (pre.sin_service = None)
      "select with a selection already pending";
    (match pre_client pre id with
    | None -> chk "select-min-start" false "selected unknown client %d" id
    | Some c ->
      chk "select-min-start" c.crunnable "selected blocked client %d" id;
      (match min_ready_start pre with
      | Some m ->
        chk "select-min-start" (c.cstart <= m)
          "selected client %d with S=%g, but min ready S=%g" id c.cstart m
      | None -> chk "work-conserving" false "selected from an empty ready set");
      chk "vt-monotone" (feq vt c.cstart)
        "v(t)=%g after select, expected selected start tag %g" vt c.cstart)
  | Charge { id; service; runnable } ->
    chk "work-conserving"
      (pre.sin_service = Some id)
      "charge of client %d but in-service was %s" id
      (match pre.sin_service with
      | None -> "none"
      | Some s -> string_of_int s);
    (match pre_client pre id with
    | None -> chk "charge-finish-tag" false "charged unknown client %d" id
    | Some c ->
      (* F = S + l / effective weight (rule 1 + §4 donation). *)
      let expect = c.cstart +. (float_of_int service /. c.ceff) in
      let finish = Sfq.finish_tag t ~id in
      chk "charge-finish-tag" (feq finish expect)
        "F=%g, expected S + l/w = %g + %d/%g = %g" finish c.cstart service
        c.ceff expect;
      chk "max-finish-bound"
        (Sfq.max_finish_tag t >= finish)
        "max finish %g below new finish %g" (Sfq.max_finish_tag t) finish;
      if runnable then
        chk "tag-discipline"
          (feq (Sfq.start_tag t ~id) (Float.max vt finish))
          "requeued S=%g, expected max(v=%g, F=%g)" (Sfq.start_tag t ~id) vt
          finish
      else
        chk "tag-discipline"
          (not (Sfq.is_runnable t ~id))
          "client %d still runnable after blocking charge" id)
  | Block id ->
    if Sfq.mem t ~id then
      chk "tag-discipline"
        (not (Sfq.is_runnable t ~id))
        "client %d runnable after block" id
  | Depart id ->
    chk "nrun-consistent" (not (Sfq.mem t ~id)) "client %d known after depart" id
  | Set_weight { id; weight } ->
    chk "tag-discipline"
      (feq (Sfq.weight t ~id) weight)
      "set_weight did not apply %g (has %g)" weight (Sfq.weight t ~id);
    (match pre_client pre id with
    | Some c ->
      (* Weight changes only govern future quanta: tags must not move. *)
      chk "tag-discipline"
        (feq (Sfq.start_tag t ~id) c.cstart
        && feq (Sfq.finish_tag t ~id) c.cfinish)
        "set_weight moved tags of client %d" id
    | None -> chk "tag-discipline" false "set_weight on unknown client %d" id)
  | Donate { blocked; recipient } ->
    chk "donation-conservation"
      (List.exists
         (fun (b, r, _) -> b = blocked && r = recipient)
         (Sfq.donations t))
      "no donation record %d->%d after donate" blocked recipient
  | Revoke blocked ->
    chk "donation-conservation"
      (not (List.exists (fun (b, _, _) -> b = blocked) (Sfq.donations t)))
      "donation from %d still recorded after revoke" blocked;
    (* Revoking one donor must not disturb anyone else's donations. *)
    List.iter
      (fun (b, r, a) ->
        if b <> blocked then
          chk "donation-conservation"
            (List.exists
               (fun (b', r', a') -> b' = b && r' = r && feq a a')
               (Sfq.donations t))
            "revoke of %d dropped unrelated donation %d->%d (%g)" blocked b r a)
      pre.sdonations);
  check_state_ev ~node ~event sink t
