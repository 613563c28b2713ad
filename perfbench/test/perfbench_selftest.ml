(* Toy-size self-test of the benchmark harness.  For each workload,
   shrunk: events fire, the hierarchy replay reproduces every recorded
   decision, the timed layers plus the residual add up to
   ns_per_decision, every check passes, and every count and simulated
   metric repeats exactly across two runs of the same seed. *)

open Perfbench

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let deterministic (m : Bench.metric) =
  match m.clock with Bench.Count | Bench.Sim -> true | Bench.Host -> false

let same a b = a = b || (Float.is_nan a && Float.is_nan b)

let run spec = Bench.run spec ~seed:7 ~seconds:0. ~trace:true

let () =
  List.iter
    (fun full ->
      let spec = Workloads.scaled full ~slices:20 ~divisor:10 in
      let a = run spec and b = run spec in
      let name = spec.name in
      List.iter
        (fun (c : Bench.check) ->
          if not c.ok then fail "%s: check %s: %s" name c.label c.detail)
        (a.checks @ b.checks);
      if Bench.find a.per_layer "engine.events" <= 0. then fail "%s: no events" name;
      if Bench.find a.per_layer "hierarchy.replay_mismatches" <> 0. then
        fail "%s: replay mismatches" name;
      let e2e = Bench.find a.end_to_end "ns_per_decision" in
      let sum =
        List.fold_left
          (fun acc n -> acc +. Bench.find a.per_layer n)
          (Bench.find a.per_layer "residual.ns_per_decision")
          Bench.layer_sum_names
      in
      if Float.abs (sum -. e2e) > 1e-6 *. e2e then
        fail "%s: layers + residual = %f, ns_per_decision = %f" name sum e2e;
      List.iter2
        (fun (x : Bench.metric) (y : Bench.metric) ->
          if deterministic x && not (same x.value y.value) then
            fail "%s: %s differs across runs: %.17g vs %.17g" name x.name x.value
              y.value)
        (a.end_to_end @ a.per_layer)
        (b.end_to_end @ b.per_layer);
      Printf.printf "%-10s ok: %.0f decisions, %.0f events, layers + residual = %.1f ns\n%!"
        name
        (Bench.find a.per_layer "kernel.decisions")
        (Bench.find a.per_layer "engine.events")
        sum)
    Workloads.all;
  print_endline "perfbench self-test PASSED."
