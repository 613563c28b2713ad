include Fq_engine.Fair (struct
  let algorithm_name = "stride"
  let label = "Stride"
  let key = Fq_engine.Start_tag
  let length = Fq_engine.Actual
  let clock = Fq_engine.Global_pass
end)
