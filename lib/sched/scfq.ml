include Fq_engine.Fair (struct
  let algorithm_name = "scfq"
  let label = "Scfq"
  let key = Fq_engine.Finish_tag
  let length = Fq_engine.Hint
  let clock = Fq_engine.In_service
end)
