(** Per-layer costs recovered from the traced run's obs ring.

    The kernel calls the hierarchy directly, so its cost cannot be
    wrapped from outside.  Instead the ring's events are drained after
    every slice into the op stream the hierarchy received — leaf
    setrun/sleep (the first [node-setrun]/[node-sleep] of each walk),
    [schedule_id] (a [pick] at the root, with the leaf the following
    [dispatch] recorded), [update_ns] (the first [tag-update] of each
    walk) and the structural writes — and that stream is replayed into a
    fresh {!Hsfq_core.Hierarchy.t} built with the same tree.  The same
    drain collects the distinct event instants for the engine replay. *)

type t

val create : System.t -> t

val drain : t -> unit
(** Consume every ring event emitted since the last drain. *)

val mark : t -> unit
(** The measured region starts here: replay timings, pick counts and
    event instants count only after the mark. *)

val overflowed : t -> bool
(** The ring wrapped between two drains: events were lost and the
    replay is incomplete. *)

val ring_events : t -> int
(** Ring events consumed after the mark. *)

val picks : t -> int
(** Hierarchy levels descended ([pick] events) after the mark. *)

type hier = {
  schedule_ns : int;
  schedules : int;
  update_ns : int;
  updates : int;
  setrun_sleep_ns : int;
  setrun_sleeps : int;
  words : float;  (** minor words of the measured schedule/update ops *)
  mismatches : int;
      (** replayed [schedule_id] results that differ from the recorded
          leaf, plus replayed [mknod] ids that differ from the original *)
}

val replay_hierarchy : t -> clock_ns:float -> hier
(** [clock_ns] is the cost of one clock read pair, subtracted per op. *)

val replay_engine : t -> int * int
(** [(events, ns)]: the measured region's distinct event instants fired
    through a fresh {!Hsfq_engine.Sim.t}, 64 pending at a time. *)
