(** Uniform access to every reproduction experiment, used by the
    [hsfq_sim] CLI, the experiment tests and the benchmark's sweep. *)

type computed = {
  render : unit -> unit;  (** print the captured rows/series *)
  checks : Common.check list;
}

type entry = {
  id : string;  (** e.g. ["fig5"], ["xfair"] *)
  title : string;
  paper_claim : string;  (** one line: what the paper reports *)
  compute : unit -> computed;
      (** run the experiment with rendering deferred: all simulation
          happens inside [compute] (which prints nothing and touches no
          shared state, so entries may be computed on worker domains),
          and the caller invokes [render] afterwards — in entry order,
          on the main domain *)
}

val all : entry list
val find : string -> entry option
val ids : unit -> string list
