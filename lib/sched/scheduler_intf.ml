(** Common interface for proportional-share ("fair") schedulers.

    All the virtual-time schedulers in this repository — the paper's SFQ
    ({!Hsfq_core.Sfq}) and the related-work baselines (WFQ, SCFQ, FQS,
    stride, lottery, EEVDF) — operate on an abstract set of *clients*
    (threads or scheduling-structure nodes) identified by integers, each
    with a positive weight.

    Protocol, driven by the kernel or by a test harness:
    {ol
    {- [arrive] announces that a client is runnable (first time or after
       blocking). Per-client scheduler state (e.g. SFQ's finish tag)
       persists across blocked periods.}
    {- [select] picks the client to run next and marks it "in service",
       or returns [-1] when no client is runnable. Exactly one [charge]
       must follow each successful [select].}
    {- [charge] reports the *actual* service received (the paper's quantum
       length [l]) and whether the client is still runnable. Service is
       an integer amount of work: nanoseconds of CPU time under the
       kernel, bits on a simulated packet link. Implementations convert
       it to float on entry.}
    {- [depart] removes a client entirely (thread exit).}}

    Service is reported {e after} it happens. Algorithms that need quantum
    lengths a priori (WFQ, SCFQ — see §6 of the paper) instead use the
    [quantum_hint] given at creation as the assumed length; this is exactly
    the limitation the paper criticises and the comparison experiments
    exercise it. *)

module type FAIR = sig
  type t

  val algorithm_name : string

  val create : ?rng:Hsfq_engine.Prng.t -> ?quantum_hint:float -> unit -> t
  (** [rng] is required only by randomized algorithms (lottery) and
      otherwise ignored. [quantum_hint] (default 10 ms, in ns) is the
      assumed/standard quantum for algorithms that need one. *)

  val arrive : t -> id:int -> weight:float -> unit
  (** Mark client [id] runnable with the given weight. Idempotent when the
      client is already runnable (the weight argument is then ignored;
      use [set_weight] to change it). [weight] must be positive. *)

  val depart : t -> id:int -> unit
  (** Forget the client completely. *)

  val set_weight : t -> id:int -> weight:float -> unit

  val select : t -> int
  (** Choose the next client to serve; [-1] iff no client is runnable.
      The chosen client is "in service" until the matching [charge].
      This is the one selection entry point: it allocates nothing, so
      the kernel's dispatch loop and tests call the same function. *)

  val charge : t -> id:int -> service:int -> runnable:bool -> unit
  (** Account [service] units of work (ns of CPU, or bits) to the
      in-service client [id]; [runnable] says whether it stays in the
      ready set (false = it blocked). An [int], so the call allocates
      nothing. *)

  val backlogged : t -> int
  (** Number of runnable clients (including one in service, if any). *)

  val virtual_time : t -> float
  (** The algorithm's notion of virtual time, for tests and diagnostics
      (0. for algorithms without one, e.g. lottery). *)
end
