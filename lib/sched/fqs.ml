include Fq_engine.Fair (struct
  let algorithm_name = "fqs"
  let label = "Fqs"
  let key = Fq_engine.Start_tag
  let length = Fq_engine.Actual
  let clock = Fq_engine.Gps_round
end)
