(** In-memory span recorder for the traced run.

    A span is one timed call across a layer boundary: its kind, host
    start and end (ns), and its parent span (the enclosing simulated
    slice, or [-1]).  Every span feeds per-kind aggregates (count, ns,
    minor words); the first [capacity] spans are also kept verbatim and
    written out by {!write} when the run ends. *)

type t

val k_slice : int
val k_workload : int
val k_leaf_select : int
val k_leaf_charge : int
val k_leaf_enqueue : int
val k_leaf_dequeue : int
val k_leaf_other : int
(** backlogged / quantum_ns_of / preempts / detach / donate / revoke /
    second_tick: the rest of the leaf adapter's record *)

val k_control : int
(** the benchmark's own control events (respawn, leaf turnover) *)

val k_spawn : int
val k_kill : int
val k_mknod : int
val k_rmnod : int

val nkinds : int

val create : ?capacity:int -> disciplines:int -> unit -> t

val enter_slice : t -> int -> unit
(** [enter_slice t start_ns] opens a slice span; child spans recorded
    until {!leave_slice} name it as their parent. *)

val leave_slice : t -> int -> unit

val record : t -> kind:int -> start:int -> stop:int -> words:int -> unit

val record_leaf :
  t -> kind:int -> disc:int -> start:int -> stop:int -> words:int -> unit
(** A leaf-adapter span, also charged to discipline [disc]. *)

val leaf_decision : t -> disc:int -> unit
(** Count one decision served by a leaf of discipline [disc]. *)

val count : t -> int -> int
val ns : t -> int -> int
val words : t -> int -> int
val disc_ns : t -> int -> int
val disc_decisions : t -> int -> int
val disc_calls : t -> int -> int
val reset_region : t -> unit
(** Zero the per-decision aggregates (slices, workload, leaf, control)
    at the start of the measured region; structural-write aggregates
    keep their set-up calls. *)

val recorded : t -> int
(** Spans kept verbatim (at most [capacity]). *)

val total : t -> int
(** Spans recorded in all. *)

val write : t -> string -> unit
(** Tab-separated [id kind start_ns end_ns parent] lines. *)
