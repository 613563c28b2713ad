(* Host wall clock in integer nanoseconds (CLOCK_MONOTONIC, through the
   bechamel stub).  Declared here rather than called through
   [Monotonic_clock.now] so the read stays unboxed and allocation-free
   inside the span wrappers. *)
external now_int64 : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (now_int64 ())
