(* Regenerator for test/golden/fq_family.digests — the fair-queueing
   family's behaviour anchor (see Hsfq_check.Fq_family). Every row must
   stay byte-identical across representation changes; regenerate only
   when a change is meant to alter a discipline's picks or v(t) bits:

     dune exec bin/fq_golden.exe > test/golden/fq_family.digests *)

let () = List.iter print_endline (Hsfq_check.Fq_family.rows ())
