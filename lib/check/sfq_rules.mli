(** The paper's SFQ invariants (§3 rules 1–2, Theorems 1–3), executable.

    Two granularities:

    - {!check_state} scans one SFQ instance and verifies every invariant
      expressible on a state snapshot (tag discipline, virtual-time
      bounds, ready-count consistency, donation conservation);
    - {!check_transition} additionally verifies the step semantics of a
      single [arrive]/[select]/[charge]/[block]/[depart]/[donate]/[revoke]
      against the pre-state captured with {!snapshot}.

    Rule identifiers reported to the sink (see [doc/INVARIANTS.md]):
    ["vt-monotone"], ["tag-discipline"], ["select-min-start"],
    ["nrun-consistent"], ["donation-conservation"], ["work-conserving"],
    ["charge-finish-tag"], ["max-finish-bound"]. *)

open Hsfq_core

type snapshot
(** Cheap capture of the observable SFQ state: virtual time, ready count,
    in-service client, and per-client (weight, start, finish, runnable). *)

val snapshot : Sfq.t -> snapshot
val snapshot_vt : snapshot -> float

(** The transition just performed, for {!check_transition}. *)
type event =
  | Arrive of { id : int; weight : float }
  | Select of int option  (** the selection result *)
  | Charge of { id : int; service : int; runnable : bool }
  | Block of int
  | Depart of int
  | Set_weight of { id : int; weight : float }
  | Donate of { blocked : int; recipient : int }
  | Revoke of int

val event_to_string : event -> string

val check_state :
  ?node:string -> ?event:string -> Invariant.sink -> Sfq.t -> unit
(** Verify all snapshot invariants of [t], reporting into the sink with
    [node] (default ["sfq"]) as the location and [event] (default
    ["state"]) as the transition label. *)

val check_transition :
  ?node:string -> Invariant.sink -> pre:snapshot -> Sfq.t -> event -> unit
(** Verify the step semantics of [event] given the pre-state, then run
    {!check_state} on the post-state. *)
