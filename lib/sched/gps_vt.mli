(** WFQ/FQS with the {e real-time} GPS virtual clock — the variants the
    paper actually criticises in §6.

    The textbook WFQ definition (paper eq. 12) advances virtual time with
    {e wall-clock} time at rate [C / (sum of backlogged weights)], where
    [C] is the server's nominal capacity. When the bandwidth actually
    available fluctuates below [C] — e.g. the scheduler sits at a
    hierarchy node whose siblings come and go — v(t) races ahead of the
    service actually delivered, every client's tags re-anchor to [max(v,
    F)], and the allocation degrades toward unweighted round-robin. This
    is the precise failure mode behind "WFQ does not provide fairness
    when the processor bandwidth fluctuates over time"; the [xfair]
    experiment measures it against SFQ.

    [order] selects finish-tag scheduling (WFQ proper; needs the assumed
    [quantum_hint] length a priori) or start-tag scheduling (FQS; actual
    lengths). Unlike {!Scheduler_intf.FAIR} implementations, every
    operation takes the current wall-clock [now] (nanoseconds).

    An instance of {!Fq_engine} with the [Wall_clock] rule: each op
    that takes [now] first advances v(t) to it. *)

type t

type order = Finish_tags  (** WFQ *) | Start_tags  (** FQS *)

val create : order:order -> ?capacity:float -> ?quantum_hint:float -> unit -> t
(** [capacity] is the nominal service rate in work-per-ns (default 1.0 —
    a fully dedicated CPU); [quantum_hint] the assumed quantum in work
    units (default 2e7, i.e. 20 ms at capacity 1). *)

val arrive : t -> now:Hsfq_engine.Time.t -> id:int -> weight:float -> unit
val depart : t -> id:int -> unit
val set_weight : t -> id:int -> weight:float -> unit
val select : t -> now:Hsfq_engine.Time.t -> int
(** The picked client, or [-1] if none is runnable. *)

val charge :
  t -> now:Hsfq_engine.Time.t -> id:int -> service:int -> runnable:bool -> unit
(** [service] is integer work units (ns at capacity 1). *)

val backlogged : t -> int
val virtual_time : t -> now:Hsfq_engine.Time.t -> float
(** The GPS round number, advanced to [now]. *)
