include Fq_engine.Fair (struct
  let algorithm_name = "round-robin"
  let label = "Round_robin"
  let key = Fq_engine.Requeue
  let length = Fq_engine.Actual
  let clock = Fq_engine.No_clock
end)
