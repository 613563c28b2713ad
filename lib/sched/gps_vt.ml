module E = Fq_engine

type order = Finish_tags | Start_tags
type t = E.t

let create ~order ?(capacity = 1.0) ?(quantum_hint = 2e7) () =
  if capacity <= 0. then invalid_arg "Gps_vt.create: capacity <= 0";
  let key, length =
    match order with
    | Finish_tags -> (E.Finish_tag, E.Hint)
    | Start_tags -> (E.Start_tag, E.Actual)
  in
  E.create ~name:"Gps_vt" ~label:"Gps_vt" ~key ~length ~clock:Wall_clock ~capacity
    ~quantum_hint ()

let arrive t ~now ~id ~weight =
  E.advance t ~now;
  E.arrive t ~id ~weight

let depart = E.depart
let set_weight = E.set_weight

let select t ~now =
  E.advance t ~now;
  E.select t

let charge t ~now ~id ~service ~runnable =
  E.advance t ~now;
  E.charge t ~id ~service ~runnable

let backlogged = E.backlogged

let virtual_time t ~now =
  E.advance t ~now;
  E.virtual_time t
