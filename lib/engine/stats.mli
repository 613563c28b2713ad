(** Streaming and batch statistics.

    [t] is a Welford accumulator: numerically stable running mean and
    variance with O(1) updates, plus min/max. Batch helpers (percentile,
    coefficient of variation, Jain's fairness index) operate on arrays. *)

type t

val create : unit -> t
val add : t -> float -> unit

val add_int : t -> int -> unit
(** [add t (float_of_int i)] without boxing the sample: per-quantum
    callers with integer samples (nanoseconds) allocate nothing. *)

val count : t -> int
val mean : t -> float
(** 0. when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0. for fewer than two samples. *)

val stddev : t -> float
val min_value : t -> float
(** +inf when empty. *)

val max_value : t -> float
(** -inf when empty. *)

val total : t -> float
val cv : t -> float
(** Coefficient of variation, [stddev / mean]; 0. if the mean is 0. *)

val merge : t -> t -> t
(** Combine two accumulators (Chan's parallel update). *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100]; linear interpolation between
    order statistics. Sorts a copy. Raises [Invalid_argument] on empty. *)

val jain_index : float array -> float
(** Jain's fairness index [ (Σx)² / (n·Σx²) ] — 1.0 means perfectly fair.
    Raises on empty input. *)

val mean_of : float array -> float
val cv_of : float array -> float
