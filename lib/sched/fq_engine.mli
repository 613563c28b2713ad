(** The one tag engine behind the fair-queueing baselines.

    The paper's §6 treats WFQ, SCFQ, FQS and stride as variants of one
    virtual-time scheme. They differ only in the ordering key, in when
    the quantum length is known, and in the rule that advances v(t).
    This module is that scheme, parameterized by those three choices;
    {!Wfq}, {!Scfq}, {!Fqs}, {!Stride}, {!Round_robin}, {!Fifo_sched}
    and {!Gps_vt} are few-line instances of it.

    Client state lives in a slot table in the style of
    {!Hsfq_core.Sfq}: one float block holding each slot's weight and
    four tags side by side, one int block holding its lifecycle state,
    heap generation and client id, and a free-slot stack. v(t) and the weight sum
    sit in an all-float record, so updating them stores unboxed floats.
    The ready queue is a {!Keyed_heap} of slots fed through
    [push_staged]/[pop_valid]. The id-to-slot table is touched only by
    [arrive], [depart] and [set_weight]: a select+charge decision does
    no hashing and allocates nothing.

    Generations are unique per instance, so a heap entry left behind by
    a departure never becomes valid again when the id arrives anew. The
    weight sum is reset to exactly [0.] whenever the backlog empties, so
    float residue from non-dyadic weights cannot leak into the next busy
    period. *)

(** What orders the ready queue. *)
type key =
  | Start_tag  (** [S = max(v, F)] of the pending quantum (FQS, stride) *)
  | Finish_tag  (** [S + l/w] of the pending quantum (WFQ, SCFQ) *)
  | Arrival
      (** arrival order, kept while the client stays runnable (FIFO:
          a charged client returns to the head) *)
  | Requeue  (** enqueue order: every quantum rejoins the tail (round robin) *)

(** Which quantum length enters a finish tag. *)
type length =
  | Hint  (** the [quantum_hint], known a priori (WFQ, SCFQ) *)
  | Actual  (** the service actually received, known at [charge] *)

(** How v(t) advances. *)
type clock =
  | Gps_round
      (** GPS round number: [service / weight sum] at every charge
          (WFQ, FQS) *)
  | In_service  (** the key of the quantum in service (SCFQ) *)
  | Global_pass
      (** stride's global pass: advances like [Gps_round]; a client's
          pass runs on without clamping to it, and one that blocks keeps
          its lead [pass - v] for its next wake-up *)
  | Wall_clock
      (** GPS on wall time: [capacity * dt / weight sum], driven by
          {!advance} *)
  | No_clock  (** v(t) stays 0 (round robin, FIFO) *)

type t

val create :
  name:string ->
  label:string ->
  key:key ->
  length:length ->
  clock:clock ->
  ?capacity:float ->
  quantum_hint:float ->
  unit ->
  t
(** [name] prefixes unknown-client errors; [label] (the module name)
    prefixes the others. [capacity] (default 1.0, work per ns) is read
    by [Wall_clock] only; [quantum_hint] by [Hint] lengths only. With
    an [Arrival] or [Requeue] key weights are ignored, never
    validated. *)

val arrive : t -> id:int -> weight:float -> unit
(** {!Scheduler_intf.FAIR.arrive}. Waking a blocked client keeps its
    registered weight; the argument only seeds a new client. *)

val depart : t -> id:int -> unit
(** {!Scheduler_intf.FAIR.depart}. Departing the client in service
    also drops the claim, so the next [select] proceeds. *)

val set_weight : t -> id:int -> weight:float -> unit
val select : t -> int

val charge : t -> id:int -> service:int -> runnable:bool -> unit
(** {!Scheduler_intf.FAIR.charge}; a negative [service] is rejected
    (the client stays in service). *)

val backlogged : t -> int
val virtual_time : t -> float

val advance : t -> now:int -> unit
(** [Wall_clock]: move v(t) to wall instant [now] (ns) at rate
    [capacity / weight sum]; it stands still while nothing is
    backlogged or when [now] is not later than the last advance. A
    no-op for the other clocks. *)

(** One discipline's choices. [label] is the module name used in error
    messages. *)
module type SPEC = sig
  val algorithm_name : string
  val label : string
  val key : key
  val length : length
  val clock : clock
end

(** The engine as a {!Scheduler_intf.FAIR} baseline ([quantum_hint]
    defaults to 10 ms; [rng] is ignored). *)
module Fair (S : SPEC) : Scheduler_intf.FAIR with type t = t
