include Fq_engine.Fair (struct
  let algorithm_name = "fifo"
  let label = "Fifo_sched"
  let key = Fq_engine.Arrival
  let length = Fq_engine.Actual
  let clock = Fq_engine.No_clock
end)
