include Fq_engine.Fair (struct
  let algorithm_name = "wfq"
  let label = "Wfq"
  let key = Fq_engine.Finish_tag
  let length = Fq_engine.Hint
  let clock = Fq_engine.Gps_round
end)
