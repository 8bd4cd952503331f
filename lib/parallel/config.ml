let resolve jobs =
  if jobs = 0 then Domain.recommended_domain_count () else max 1 jobs
