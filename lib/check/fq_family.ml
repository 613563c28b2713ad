open Hsfq_engine
open Hsfq_sched

(* A discipline behind one closure record, so FAIR modules and the
   wall-clock [Gps_vt] (every op takes [now]) share one runner. *)
type ops = {
  arrive : now:int -> id:int -> weight:float -> unit;
  depart : id:int -> unit;
  set_weight : id:int -> weight:float -> unit;
  select : now:int -> int; (* -1 = none *)
  charge : now:int -> id:int -> service:int -> runnable:bool -> unit;
  backlogged : unit -> int;
  virtual_time : now:int -> float;
}

let of_fair (module F : Scheduler_intf.FAIR) () =
  let s = F.create ~rng:(Prng.create 7) ~quantum_hint:1e7 () in
  {
    arrive = (fun ~now:_ ~id ~weight -> F.arrive s ~id ~weight);
    depart = (fun ~id -> F.depart s ~id);
    set_weight = (fun ~id ~weight -> F.set_weight s ~id ~weight);
    select = (fun ~now:_ -> F.select s);
    charge = (fun ~now:_ ~id ~service ~runnable -> F.charge s ~id ~service ~runnable);
    backlogged = (fun () -> F.backlogged s);
    virtual_time = (fun ~now:_ -> F.virtual_time s);
  }

let of_gps order () =
  let s = Gps_vt.create ~order ~capacity:0.75 ~quantum_hint:1e7 () in
  {
    arrive = (fun ~now ~id ~weight -> Gps_vt.arrive s ~now ~id ~weight);
    depart = (fun ~id -> Gps_vt.depart s ~id);
    set_weight = (fun ~id ~weight -> Gps_vt.set_weight s ~id ~weight);
    select = (fun ~now -> Gps_vt.select s ~now);
    charge =
      (fun ~now ~id ~service ~runnable ->
        Gps_vt.charge s ~now ~id ~service ~runnable);
    backlogged = (fun () -> Gps_vt.backlogged s);
    virtual_time = (fun ~now -> Gps_vt.virtual_time s ~now);
  }

let table =
  [
    ("wfq", of_fair (module Wfq));
    ("scfq", of_fair (module Scfq));
    ("fqs", of_fair (module Fqs));
    ("stride", of_fair (module Stride));
    ("round-robin", of_fair (module Round_robin));
    ("fifo", of_fair (module Fifo_sched));
    ("gps-wfq", of_gps Gps_vt.Finish_tags);
    ("gps-fqs", of_gps Gps_vt.Start_tags);
    ("eevdf", of_fair (module Eevdf));
    ("lottery", of_fair (module Lottery));
  ]

let disciplines = List.map fst table
let make name = (List.assoc name table) ()

let dyadic = [ 1.; 2.; 4.; 0.5; 0.25; 3. ]
let fractional = [ 0.1; 0.2; 0.7; 0.3; 1. /. 3.; 0.15; 2.5 ]

(* Full hint-length quanta dominate so equal weights produce tag ties. *)
let services = [ 10_000_000; 10_000_000; 10_000_000; 5_000_000; 2_500_000; 1_000_000; 3_000_000 ]
let ids = 6
let steps = 3000

let run d ~weights ~seed =
  let rng = Prng.create (0xF0F0 + seed) in
  let weights = Array.of_list weights and services = Array.of_list services in
  let picks = Buffer.create 4096 and vts = Buffer.create 65536 in
  let now = ref 0 and svc = ref (-1) in
  let note tag =
    Buffer.add_string vts tag;
    Printf.bprintf vts " %Lx %d\n"
      (Int64.bits_of_float (d.virtual_time ~now:!now))
      (d.backlogged ())
  in
  let guarded tag f =
    match f () with
    | () -> note tag
    | exception Invalid_argument msg -> note (tag ^ " E:" ^ msg)
  in
  for _ = 1 to steps do
    let r = Prng.int rng 100 in
    let id = Prng.int rng ids in
    let w = Prng.choice rng weights in
    if r < 40 then begin
      if !svc < 0 then begin
        let p = d.select ~now:!now in
        Printf.bprintf picks "%d " p;
        svc := p;
        note (Printf.sprintf "S%d" p)
      end
      else begin
        let service = Prng.choice rng services in
        let runnable = Prng.int rng 4 <> 0 in
        now := !now + service;
        let c = !svc in
        svc := -1;
        guarded
          (Printf.sprintf "C%d%b" c runnable)
          (fun () -> d.charge ~now:!now ~id:c ~service ~runnable)
      end
    end
    else if r < 62 then
      guarded (Printf.sprintf "A%d" id) (fun () -> d.arrive ~now:!now ~id ~weight:w)
    else if r < 74 then begin
      (* The protocol forbids departing the client in service. *)
      if id <> !svc then guarded (Printf.sprintf "D%d" id) (fun () -> d.depart ~id)
    end
    else if r < 82 then
      guarded (Printf.sprintf "W%d" id) (fun () -> d.set_weight ~id ~weight:w)
    else if r < 88 then begin
      (* Idle gap: wall time passes with no charge. *)
      now := !now + Prng.int_in rng 1 1_000_000_000;
      note "I"
    end
    else if !svc < 0 then begin
      (* Drain: depart everyone, so backlogs empty and re-arrivals of the
         same ids start fresh. *)
      for i = 0 to ids - 1 do
        d.depart ~id:i
      done;
      note "X"
    end
  done;
  (Digest.to_hex (Digest.string (Buffer.contents picks)),
   Digest.to_hex (Digest.string (Buffer.contents vts)))

let row ~discipline ~weights ~seed =
  let ws, wname =
    match weights with
    | `Dyadic -> (dyadic, "dyadic")
    | `Fractional -> (fractional, "fractional")
  in
  let p, v = run (make discipline) ~weights:ws ~seed in
  Printf.sprintf "%s %s seed=%d picks=%s vt=%s" discipline wname seed p v

let rows () =
  List.concat_map
    (fun discipline ->
      List.concat_map
        (fun weights ->
          List.map (fun seed -> row ~discipline ~weights ~seed) [ 1; 2; 3; 4 ])
        [ `Dyadic; `Fractional ])
    disciplines
