open Hsfq_engine

type spec =
  | Periodic of { period : Time.span; cost : Time.span }
  | Poisson of { rate_hz : float; mean_cost : Time.span; seed : int }

let utilization = function
  | Periodic { period; cost } -> float_of_int cost /. float_of_int period
  | Poisson { rate_hz; mean_cost; _ } ->
    rate_hz *. float_of_int mean_cost /. 1e9

let fc_burstiness = function
  | Periodic { cost; _ } -> cost
  | Poisson { rate_hz; mean_cost; _ } ->
    (* Heuristic envelope: mean + 3 sqrt(mean) arrivals in a second, each
       at the mean cost. Only used for reporting, not for proofs. *)
    let lambda = rate_hz in
    let burst_arrivals = lambda +. (3. *. sqrt lambda) in
    int_of_float (burst_arrivals *. float_of_int mean_cost)

let start spec ~sim ~fire =
  match spec with
  | Periodic { period; cost } ->
    if period <= 0 || cost < 0 then invalid_arg "Interrupt_source: bad periodic spec";
    let rec tick () =
      fire ~duration:cost;
      ignore (Sim.after sim period tick)
    in
    ignore (Sim.after sim period tick)
  | Poisson { rate_hz; mean_cost; seed } ->
    if rate_hz <= 0. || mean_cost <= 0 then
      invalid_arg "Interrupt_source: bad poisson spec";
    let rng = Prng.create seed in
    (* Draws go through a float cell: a boxed float per draw would make
       every arrival allocate. *)
    let cell = [| 0. |] in
    let gap_mean = 1. /. rate_hz and cost_mean = float_of_int mean_cost in
    let next_gap () =
      cell.(0) <- gap_mean;
      Prng.exponential_into rng cell;
      Time.of_seconds_cell cell
    in
    let rec arrival () =
      cell.(0) <- cost_mean;
      Prng.exponential_into rng cell;
      let cost = Int.max 1 (int_of_float cell.(0)) in
      fire ~duration:cost;
      ignore (Sim.after sim (Int.max 1 (next_gap ())) arrival)
    in
    ignore (Sim.after sim (Int.max 1 (next_gap ())) arrival)
