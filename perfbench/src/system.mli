(** One simulated system under benchmark: simulator, scheduling
    structure and kernel, plus the bookkeeping the harness needs around
    them — every structural write goes through the helpers here, so the
    traced run can time them, the hierarchy replay can rebuild the same
    tree, and the checks can find every thread. *)

open Hsfq_engine

(** Leaf disciplines, in the order their per-discipline metrics are
    reported. *)
val disc_names : string array

val d_sfq : int
val d_wfq : int
val d_scfq : int
val d_fqs : int
val d_stride : int
val d_rr : int
val d_eevdf : int
val d_lottery : int
val d_svr4 : int

type struct_op =
  | Mk of {
      name : string;
      parent : int;
      weight : float;
      kind : Hsfq_core.Hierarchy.kind;
      id : int;
    }
  | Rm of int

type leaf = {
  id : int;
  add : tid:int -> weight:float -> unit;
      (** register a thread with a weighted discipline *)
  svr4 : Hsfq_kernel.Leaf_sched.Svr4_leaf.handle option;
  sfq : Hsfq_core.Sfq.t option;
}

type t = {
  sim : Sim.t;
  hier : Hsfq_core.Hierarchy.t;
  k : Hsfq_kernel.Kernel.t;
  cpus : int;
  spans : Spans.t option;  (** [Some] in the traced run *)
  obs : Hsfq_obs.Trace.t option;  (** [Some] in the traced run *)
  mutable log : struct_op list;  (** structural writes, newest first *)
  mutable tids : int array;  (** every spawned tid, in spawn order *)
  mutable ntids : int;
  mutable latency_tids : int list;
      (** threads whose wake-to-dispatch latency [sim.latency_ms.p99]
          covers *)
  leaf_tids : (int, int list) Hashtbl.t;
  mutable leaves : leaf list;  (** live leaves *)
}

val ring_capacity : int

val create :
  traced:bool -> ?cpus:int -> ?config:Hsfq_kernel.Kernel.config -> unit -> t

val internal : t -> parent:int -> name:string -> weight:float -> int

val make_leaf :
  t -> parent:int -> name:string -> weight:float -> disc:int -> rng:Prng.t -> leaf

val remove_leaf : t -> leaf -> unit
(** Uninstall the leaf's class scheduler and [rmnod] it. *)

val spawn : t -> leaf -> name:string -> Hsfq_kernel.Workload_intf.t -> int
(** Spawn (wrapping the workload in the traced run); the caller
    registers the thread with the leaf and starts it. *)

val kill : t -> int -> unit

val decisions : t -> int
(** Scheduling decisions so far: dispatches summed over every thread. *)

val digest : t -> string
(** Hex digest of the simulated outcome: per-thread CPU time, dispatch
    count and latency statistics, plus the event count and idle time. *)

val footprint_words : t -> int
(** {!Hsfq_core.Hierarchy.footprint_words} plus
    {!Hsfq_core.Sfq.footprint_words} of every live SFQ-backed leaf. *)

val latency_p99_ms : t -> float
(** p99 of the simulated wake-to-dispatch latency (ms) over
    [latency_tids], whole run. *)

val fairness_ratios :
  t -> pairs:(int * int) list -> lmax:Time.span -> float array
(** Windowed eq. 3 check between sibling pairs that stay backlogged for
    the whole run.  Per pair (f, m): the worst gap
    |W_f/r_f - W_m/r_m| over every window between two charge instants
    (the kernel's per-thread CPU series), divided by eq. 3's bound
    l/r_f + l/r_m. *)
