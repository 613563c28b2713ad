(** The benchmark's three workloads.  Each builds its tree and threads
    into a fresh {!System.t} from its seed alone; the same seed gives the
    same simulated run. *)

type built = {
  pairs : (int * int) list;
      (** sibling pairs backlogged for the whole run: the windowed eq. 3
          check and [sim.fairness_ratio] cover these *)
  lmax : Hsfq_engine.Time.span;  (** longest quantum either sibling gets *)
  rt : Hsfq_workload.Periodic.counter list;  (** RT rounds, for miss rate *)
}

type spec = {
  name : string;
  cpus : int;
  config : Hsfq_kernel.Kernel.config;
  warmup : Hsfq_engine.Time.span;  (** simulated time before measuring *)
  slice : Hsfq_engine.Time.span;  (** simulated length of one measured slice *)
  slices : int;  (** measured slices per repetition *)
  build : System.t -> seed:int -> built;
}

val all : spec list
val find : string -> spec option

val scaled : spec -> slices:int -> divisor:int -> spec
(** A toy-size copy for the self-test: [slices] measured slices, and
    warm-up and slice length divided by [divisor]. *)
