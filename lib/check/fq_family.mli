(** Seeded op-stream recorder for the fair-queueing family — the anchor
    for [test/golden/fq_family.digests].

    Every baseline discipline (WFQ, SCFQ, FQS, stride, round robin, FIFO,
    the wall-clock GPS variants, EEVDF and lottery) is driven through the
    same seeded stream of arrivals, departures, re-arrivals of departed
    ids, weight changes, blocking and continuing charges, tag ties and
    idle gaps, always following the select/charge protocol. Two digests
    summarise each run: the sequence of selections, and the
    [virtual_time] bits plus backlog after every op (errors included,
    with their messages). A representation change that keeps every pick,
    every tie and every float bit keeps every row. Regenerate with

    {[ dune exec bin/fq_golden.exe > test/golden/fq_family.digests ]} *)

type ops = {
  arrive : now:int -> id:int -> weight:float -> unit;
  depart : id:int -> unit;
  set_weight : id:int -> weight:float -> unit;
  select : now:int -> int;  (** [-1] = nothing runnable *)
  charge : now:int -> id:int -> service:int -> runnable:bool -> unit;
  backlogged : unit -> int;
  virtual_time : now:int -> float;
}
(** One discipline behind a closure record: [now] (wall-clock ns) is
    consumed by the GPS variants and ignored by the others. *)

val disciplines : string list
(** Row labels, in output order. *)

val make : string -> ops
(** A fresh instance of the named discipline (quantum hint 10 ms; the
    GPS variants run at capacity 0.75). Raises [Not_found] for an
    unknown label. *)

val row : discipline:string -> weights:[ `Dyadic | `Fractional ] -> seed:int -> string
(** One digest line: discipline, weight set, seed, the selection digest
    and the virtual-time digest. Dyadic weights sum exactly in binary
    floating point; fractional ones (0.1, 0.7, 1/3, ...) do not. *)

val rows : unit -> string list
(** Every row, in the committed file's order. *)
