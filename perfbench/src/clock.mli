val now_ns : unit -> int
(** Monotonic host time in nanoseconds. Never allocates. *)
