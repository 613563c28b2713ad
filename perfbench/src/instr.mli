(** Span wrappers around the two layer interfaces the kernel calls
    through a closure: a thread's {!Hsfq_kernel.Workload_intf.t} and a
    leaf's {!Hsfq_kernel.Leaf_sched.t} record.  Both time the wrapped
    call with {!Clock.now_ns}, count the minor words it allocates, and
    record the span into {!Spans}; the wrapped call's behaviour is
    unchanged, so a traced run schedules exactly like an untraced one. *)

val workload : Spans.t -> Hsfq_kernel.Workload_intf.t -> Hsfq_kernel.Workload_intf.t

val leaf : Spans.t -> disc:int -> Hsfq_kernel.Leaf_sched.t -> Hsfq_kernel.Leaf_sched.t

val calibrate : unit -> float * float
(** [(ns, words)] a wrapper adds inside its own span, measured on a
    no-op leaf call; the analysis subtracts it per recorded span. *)
