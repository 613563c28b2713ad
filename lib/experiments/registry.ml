type computed = { render : unit -> unit; checks : Common.check list }

type entry = {
  id : string;
  title : string;
  paper_claim : string;
  compute : unit -> computed;
}

let entry id title paper_claim ~run ~print ~checks =
  let compute () =
    let r = run () in
    { render = (fun () -> print r); checks = checks r }
  in
  { id; title; paper_claim; compute }

let all =
  [
    entry "fig1" "MPEG decode-time variation"
      "decode cost varies at frame and scene time scales"
      ~run:(fun () -> Fig1.run ()) ~print:Fig1.print ~checks:Fig1.checks;
    entry "fig3" "SFQ worked example"
      "tags/virtual time follow the paper's narrative exactly"
      ~run:(fun () -> Fig3.run ()) ~print:Fig3.print ~checks:Fig3.checks;
    entry "fig5" "time-sharing vs SFQ predictability"
      "TS throughput varies significantly; SFQ is uniform"
      ~run:(fun () -> Fig5.run ()) ~print:Fig5.print ~checks:Fig5.checks;
    entry "fig7" "scheduling overhead"
      "hierarchical throughput within 1% of unmodified; within 0.2% across depth 0-30"
      ~run:(fun () -> Fig7.run ()) ~print:Fig7.print ~checks:Fig7.checks;
    entry "fig8" "hierarchical allocation and isolation"
      "nodes with weights 2:6 get 1:3 throughput under fluctuating load; heterogeneous leaves isolated"
      ~run:(fun () -> Fig8.run ()) ~print:Fig8.print ~checks:Fig8.checks;
    entry "fig9" "hard real-time in the hierarchy"
      "RM threads: latency bounded by the 25 ms quantum, slack always positive"
      ~run:(fun () -> Fig9.run ()) ~print:Fig9.print ~checks:Fig9.checks;
    entry "fig10" "SFQ as a leaf scheduler"
      "weight-10 MPEG player decodes twice the frames of the weight-5 player"
      ~run:(fun () -> Fig10.run ()) ~print:Fig10.print ~checks:Fig10.checks;
    entry "fig11" "dynamic bandwidth allocation"
      "throughput ratio tracks 4:4 -> 4:2 -> 0:2 -> 4:2 -> 8:2 -> 8:4 -> 4:4"
      ~run:(fun () -> Fig11.run ()) ~print:Fig11.print ~checks:Fig11.checks;
    entry "xfair" "fairness comparison under fluctuating bandwidth"
      "SFQ within its analytical lag bound; lottery/round-robin far outside"
      ~run:(fun () -> Xfair.run ()) ~print:Xfair.print ~checks:Xfair.checks;
    entry "xdelay" "delay guarantee (eq. 8) under interrupts"
      "every quantum completes within the FC-server delay bound"
      ~run:(fun () -> Xdelay.run ()) ~print:Xdelay.print ~checks:Xdelay.checks;
    entry "xlatency" "low-throughput client delay, SFQ vs WFQ/SCFQ"
      "finish-tag schedulers delay low-weight clients by l/w; SFQ does not"
      ~run:(fun () -> Xlatency.run ()) ~print:Xlatency.print ~checks:Xlatency.checks;
    entry "xoverload" "graceful degradation under overload"
      "SFQ degrades proportionally to weights; EDF collapses arbitrarily"
      ~run:(fun () -> Xoverload.run ()) ~print:Xoverload.print ~checks:Xoverload.checks;
    entry "xinversion" "priority inversion and weight donation"
      "weight transfer keeps the blocking thread's allocation at least the blocked thread's (4)"
      ~run:(fun () -> Xinversion.run ()) ~print:Xinversion.print
      ~checks:Xinversion.checks;
    entry "xebf" "EBF stochastic server model under Poisson interrupts"
      "deviation probability from the average rate decreases exponentially (3, eq. 7)"
      ~run:(fun () -> Xebf.run ()) ~print:Xebf.print ~checks:Xebf.checks;
    entry "xreserve" "processor capacity reserves as a leaf class"
      "complementary schedulers like [13] can be employed as leaf class schedulers (6)"
      ~run:(fun () -> Xreserve.run ()) ~print:Xreserve.print ~checks:Xreserve.checks;
    entry "xnet" "SFQ on a packet link (the [6] setting)"
      "the 3 guarantees hold on the original resource: weighted goodput, eq. 8 delay, WFQ's small-packet penalty"
      ~run:(fun () -> Xnet.run ()) ~print:Xnet.print ~checks:Xnet.checks;
    entry "xqos" "the Figure 4 QoS manager, live"
      "admission control per class, placement, and dynamic growth of the soft class under decoder arrivals (4)"
      ~run:(fun () -> Xqos.run ()) ~print:Xqos.print ~checks:Xqos.checks;
    entry "xpreempt" "dispatch-policy ablation (latency vs switches)"
      "immediate cross-class preemption improves mean latency only: SFQ fairness keeps the tail at the quantum either way"
      ~run:(fun () -> Xpreempt.run ()) ~print:Xpreempt.print ~checks:Xpreempt.checks;
    entry "xprotect" "protection from RT-class monopolization"
      "flat SVR4 starves TS under an RT hog; the hierarchy protects siblings"
      ~run:(fun () -> Xprotect.run ()) ~print:Xprotect.print ~checks:Xprotect.checks;
    entry "xsmp" "multiprocessor HSFQ on a simulated CPU set"
      "per-CPU dispatch tracks the capped max-min GPS reference for P=1..8; latency stays quantum-bounded under migration storms"
      ~run:(fun () -> Xsmp.run ()) ~print:Xsmp.print ~checks:Xsmp.checks;
  ]

let find id = List.find_opt (fun e -> String.equal e.id id) all
let ids () = List.map (fun e -> e.id) all
