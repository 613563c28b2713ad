(* Command-line entry point:
     perfbench_main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>
                        [--spans <file>]
   prints a human-readable table of every metric, then, as the last
   line, one JSON object with the end-to-end metrics (--trace 0) or the
   per-layer metrics (--trace 1). *)

open Perfbench

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let clock_name = function Bench.Host -> "host" | Sim -> "simulated" | Count -> "count"

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun (m : Bench.metric) ->
      Printf.printf "  %-34s %16.6g %-6s %-9s %s\n" m.name m.value m.unit_
        (clock_name m.clock) m.note)
    ms

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "paper-mix | churn | deep-fair");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "host seconds to measure");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer");
      ("--spans", Arg.Set_string spans, "write the traced run's spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench_main --workload <name> --seed <n> --seconds <s> --trace <0|1>";
  let spec =
    match Workloads.find !workload with
    | Some s -> s
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let traced = !trace = 1 in
  let r = Bench.run spec ~seed:!seed ~seconds:!seconds ~trace:traced in
  Printf.printf "workload %s, seed %d\n" r.workload r.seed;
  print_table "end-to-end (untraced)" r.end_to_end;
  if traced then print_table "per-layer (traced)" r.per_layer;
  Printf.printf "checks\n";
  List.iter
    (fun (c : Bench.check) ->
      Printf.printf "  [%s] %s: %s\n" (if c.ok then "PASS" else "FAIL") c.label c.detail)
    r.checks;
  (if !spans <> "" then
     match r.spans with
     | Some sp ->
       Spans.write sp !spans;
       Printf.printf "spans: %d of %d written to %s\n" (Spans.recorded sp)
         (Spans.total sp) !spans
     | None -> ());
  let failed = List.length (List.filter (fun (c : Bench.check) -> not c.ok) r.checks) in
  let reported =
    List.filter
      (fun (m : Bench.metric) -> Float.is_finite m.value)
      (if traced then r.per_layer
       else
         List.filter
           (fun (m : Bench.metric) ->
             not (List.mem m.name [ "failed_checks"; "sim.deadline_miss_rate" ]))
           r.end_to_end)
  in
  let fields =
    List.map
      (fun (m : Bench.metric) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
          m.unit_)
      reported
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) (List.length r.checks) failed (String.concat ", " fields)
