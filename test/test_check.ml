(* Tests for the invariant-audit subsystem (lib/check): the sink
   policies, the SFQ rule set, the generic FAIR decorator — including
   that it actually *catches* broken schedulers and fabricated
   transitions, not just that clean runs stay silent — and the
   structure-level hierarchy audit. *)

open Hsfq_core
module Invariant = Hsfq_check.Invariant
module Sfq_rules = Hsfq_check.Sfq_rules
module Audited = Hsfq_check.Audited
module Hierarchy_audit = Hsfq_check.Hierarchy_audit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --------------------------- the sink ------------------------------- *)

let test_collect_sink () =
  let sink = Invariant.create () in
  check_int "fresh sink" 0 (Invariant.count sink);
  Invariant.check sink ~invariant:"vt-monotone" ~node:"/rt" ~event:"charge"
    false "went backwards: %g -> %g" 2. 1.;
  Invariant.check sink ~invariant:"tag-discipline" ~node:"/rt" ~event:"arrive"
    false "S=%g < F=%g" 0. 1.;
  check_int "two violations" 2 (Invariant.count sink);
  (match Invariant.violations sink with
  | [ v1; v2 ] ->
    check_string "rule id" "vt-monotone" v1.Invariant.invariant;
    check_string "node" "/rt" v1.Invariant.node;
    check_string "event" "charge" v1.Invariant.event;
    check_string "formatted detail" "went backwards: 2 -> 1" v1.Invariant.detail;
    check_string "order preserved" "tag-discipline" v2.Invariant.invariant
  | vs -> Alcotest.failf "expected 2 stored violations, got %d" (List.length vs));
  check_bool "summary mentions the count" true
    (String.length (Invariant.summary sink) > 0
    && String.sub (Invariant.summary sink) 0 1 = "2");
  Invariant.clear sink;
  check_int "clear resets" 0 (Invariant.count sink)

let test_limit_caps_storage () =
  let sink = Invariant.create ~limit:2 () in
  for i = 1 to 5 do
    Invariant.check sink ~invariant:"r" ~node:"n" ~event:"e" false "v%d" i
  done;
  check_int "count keeps counting" 5 (Invariant.count sink);
  check_int "storage capped" 2 (List.length (Invariant.violations sink))

let test_raise_sink () =
  let sink = Invariant.create ~policy:Raise () in
  match
    Invariant.check sink ~invariant:"select-min-start" ~node:"sfq" ~event:"select"
      false "S=%g not minimal" 7.
  with
  | () -> Alcotest.fail "expected Violation"
  | exception Invariant.Violation v ->
    check_string "rule" "select-min-start" v.Invariant.invariant;
    check_string "detail" "S=7 not minimal" v.Invariant.detail

let test_passing_checks_silent () =
  let sink = Invariant.create ~policy:Raise () in
  Invariant.check sink ~invariant:"r" ~node:"n" ~event:"e" true "never %s" "built";
  check_int "nothing reported" 0 (Invariant.count sink)

(* ------------------------ SFQ rule set ------------------------------ *)

(* A clean run through the full audited API — arrivals, selections,
   charges, blocking, weight changes, donation and departure — must not
   report anything. *)
let test_audited_sfq_clean () =
  let sink = Invariant.create () in
  let s = Audited.Sfq.create ~node:"t" ~sink () in
  Audited.Sfq.arrive s ~id:1 ~weight:1.;
  Audited.Sfq.arrive s ~id:2 ~weight:2.;
  Audited.Sfq.arrive s ~id:3 ~weight:4.;
  let spin () =
    match Audited.Sfq.select s with
    | -1 -> Alcotest.fail "selection expected"
    | id -> Audited.Sfq.charge s ~id ~service:10 ~runnable:true
  in
  spin ();
  spin ();
  Audited.Sfq.block s ~id:2;
  Audited.Sfq.donate s ~blocked:2 ~recipient:3;
  spin ();
  Audited.Sfq.set_weight s ~id:1 ~weight:3.;
  spin ();
  Audited.Sfq.revoke s ~blocked:2;
  Audited.Sfq.arrive s ~id:2 ~weight:2.;
  spin ();
  Audited.Sfq.block s ~id:1;
  Audited.Sfq.depart s ~id:1;
  spin ();
  check_string "no violations" "0 invariant violations" (Invariant.summary sink)

(* A transition that did not happen as claimed must be caught: here the
   checker is told client 1 departed while it is in fact still there. *)
let test_fabricated_transition_caught () =
  let sink = Invariant.create () in
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:1.;
  let pre = Sfq_rules.snapshot s in
  Sfq_rules.check_transition ~node:"t" sink ~pre s (Sfq_rules.Depart 1);
  check_bool "violation reported" true (Invariant.count sink > 0);
  match Invariant.violations sink with
  | v :: _ -> check_string "rule" "nrun-consistent" v.Invariant.invariant
  | [] -> Alcotest.fail "expected a stored violation"

(* ---------------------- the FAIR decorator -------------------------- *)

(* A deliberately broken scheduler: it refuses to schedule anyone. The
   decorator must flag the lost work conservation. *)
module Broken : Hsfq_sched.Scheduler_intf.FAIR = struct
  type t = { mutable n : int }

  let algorithm_name = "broken"
  let create ?rng:_ ?quantum_hint:_ () = { n = 0 }
  let arrive t ~id:_ ~weight:_ = t.n <- t.n + 1
  let depart t ~id:_ = if t.n > 0 then t.n <- t.n - 1
  let set_weight _ ~id:_ ~weight:_ = ()
  let select _ = -1
  let charge _ ~id:_ ~service:_ ~runnable:_ = ()
  let backlogged t = t.n
  let virtual_time _ = 0.
end

module Audited_broken = Audited.Make (Broken)

let test_decorator_catches_broken_scheduler () =
  let sink = Invariant.create () in
  let a = Audited_broken.wrap ~node:"broken" ~sink (Broken.create ()) in
  Audited_broken.arrive a ~id:1 ~weight:1.;
  check_int "clean so far" 0 (Invariant.count sink);
  ignore (Audited_broken.select a : int);
  check_bool "refusal to schedule reported" true (Invariant.count sink > 0);
  match Invariant.violations sink with
  | v :: _ -> check_string "rule" "work-conserving" v.Invariant.invariant
  | [] -> Alcotest.fail "expected a stored violation"

module Audited_fqs = Audited.Make (Hsfq_sched.Fqs)

let test_decorator_clean_on_real_scheduler () =
  let sink = Invariant.create () in
  let a = Audited_fqs.wrap ~node:"fqs" ~sink (Hsfq_sched.Fqs.create ()) in
  Audited_fqs.arrive a ~id:1 ~weight:1.;
  Audited_fqs.arrive a ~id:2 ~weight:3.;
  for i = 0 to 19 do
    match Audited_fqs.select a with
    | -1 -> ()
    | id -> Audited_fqs.charge a ~id ~service:5 ~runnable:(i < 19)
  done;
  Audited_fqs.depart a ~id:1;
  Audited_fqs.depart a ~id:2;
  check_string "no violations" "0 invariant violations" (Invariant.summary sink)

(* ----------------------- hierarchy audit ---------------------------- *)

let mknod_exn h ~name ~parent ~weight kind =
  match Hierarchy.mknod h ~name ~parent ~weight kind with
  | Ok id -> id
  | Error e -> Alcotest.failf "mknod %s: %s" name e

let test_hierarchy_audit_clean () =
  let sink = Invariant.create () in
  let h = Hierarchy.create () in
  Hierarchy_audit.attach sink h;
  let rt = mknod_exn h ~name:"rt" ~parent:Hierarchy.root ~weight:2. Hierarchy.Internal in
  let a = mknod_exn h ~name:"a" ~parent:rt ~weight:1. Hierarchy.Leaf in
  let b = mknod_exn h ~name:"b" ~parent:rt ~weight:3. Hierarchy.Leaf in
  let ts = mknod_exn h ~name:"ts" ~parent:Hierarchy.root ~weight:1. Hierarchy.Leaf in
  Hierarchy.setrun h a;
  Hierarchy.setrun h b;
  Hierarchy.setrun h ts;
  for _ = 1 to 50 do
    match Hierarchy.schedule_id h with
    | -1 -> Alcotest.fail "schedule expected a runnable leaf"
    | leaf -> Hierarchy.update_ns h ~leaf ~service_ns:1_000_000 ~leaf_runnable:true
  done;
  Hierarchy.sleep h b;
  Hierarchy.set_weight h a 5.;
  for _ = 1 to 20 do
    match Hierarchy.schedule_id h with
    | -1 -> Alcotest.fail "schedule expected a runnable leaf"
    | leaf -> Hierarchy.update_ns h ~leaf ~service_ns:1_000_000 ~leaf_runnable:true
  done;
  Hierarchy_audit.check_all sink h;
  check_string "no violations" "0 invariant violations" (Invariant.summary sink)

(* Tamper with an internal node's SFQ behind the structure's back: the
   administered weight no longer matches the registration, which the
   weight-conservation sweep must notice. *)
let test_hierarchy_audit_catches_tampering () =
  let sink = Invariant.create () in
  let h = Hierarchy.create () in
  let rt = mknod_exn h ~name:"rt" ~parent:Hierarchy.root ~weight:2. Hierarchy.Internal in
  let a = mknod_exn h ~name:"a" ~parent:rt ~weight:1. Hierarchy.Leaf in
  Hierarchy.setrun h a;
  Sfq.set_weight (Hierarchy.internal_sfq h Hierarchy.root) ~id:rt ~weight:9.;
  Hierarchy_audit.check_all sink h;
  check_bool "tampering reported" true (Invariant.count sink > 0);
  match Invariant.violations sink with
  | v :: _ ->
    check_string "rule" "weight-conservation" v.Invariant.invariant
  | [] -> Alcotest.fail "expected a stored violation"

let () =
  Alcotest.run "check"
    [
      ( "sink",
        [
          Alcotest.test_case "collect policy stores and counts" `Quick
            test_collect_sink;
          Alcotest.test_case "limit caps storage, not the count" `Quick
            test_limit_caps_storage;
          Alcotest.test_case "raise policy raises" `Quick test_raise_sink;
          Alcotest.test_case "passing checks report nothing" `Quick
            test_passing_checks_silent;
        ] );
      ( "sfq-rules",
        [
          Alcotest.test_case "audited SFQ run is clean" `Quick
            test_audited_sfq_clean;
          Alcotest.test_case "fabricated transition caught" `Quick
            test_fabricated_transition_caught;
        ] );
      ( "decorator",
        [
          Alcotest.test_case "catches a work-shy scheduler" `Quick
            test_decorator_catches_broken_scheduler;
          Alcotest.test_case "clean on a real scheduler" `Quick
            test_decorator_clean_on_real_scheduler;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "structure operations audit clean" `Quick
            test_hierarchy_audit_clean;
          Alcotest.test_case "catches out-of-band tampering" `Quick
            test_hierarchy_audit_catches_tampering;
        ] );
    ]
