(** Pass 3: allocation sites ([tl-hot-alloc]) and float boxing
    ([tl-float-box]) on declared hot paths, from typedtrees. *)

type config = {
  source : string;  (** repo-relative .ml of the hot module *)
  roots : string list;  (** per-decision entrypoint functions *)
  cold : string list;  (** slow-path helpers excluded from the walk *)
}

(** The repo's hot-path contract: sfq and the fair-queueing tag engine
    select/charge, hierarchy schedule/update/setrun/sleep, keyed_heap
    and event_queue minus their grow/compact slow paths, and the lib/obs
    record path. *)
val default_configs : config list

(** Scan one unit against one config (for fixture tests). Unknown roots
    and missing modules surface as [tl-hot-missing] findings. *)
val scan_unit : config -> Cmt_index.unit_info -> Finding.t list

val scan : ?configs:config list -> Cmt_index.t -> Finding.t list
