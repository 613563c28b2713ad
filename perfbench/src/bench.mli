(** Run orchestration and metric computation.

    One invocation runs repetitions of one workload with tracing off —
    each a fresh set-up, a warm-up, then [slices] measured slices of
    simulated time — until its time budget is spent, then a traced
    repetition: cut short at the digest checkpoint for the end-to-end
    run, whole for the per-layer run.  Every repetition of a seed
    simulates the same thing, so host-time samples pool across them and
    every simulated outcome must repeat exactly. *)

type clock = Host | Sim | Count

type metric = {
  name : string;
  value : float;
  unit_ : string;
  clock : clock;
  note : string;  (** sample count or other context, for the table *)
}

type check = { label : string; ok : bool; detail : string }

type result = {
  workload : string;
  seed : int;
  end_to_end : metric list;
  per_layer : metric list;  (** empty unless traced *)
  checks : check list;
  spans : Spans.t option;
}

val run :
  Workloads.spec -> seed:int -> seconds:float -> trace:bool -> result

val find : metric list -> string -> float
(** Value of the named metric; raises [Not_found]. *)

val layer_sum_names : string list
(** The per-layer [*.ns_per_decision] metrics that, with
    [residual.ns_per_decision], add up to [ns_per_decision]. *)
