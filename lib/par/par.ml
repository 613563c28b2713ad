let available_cores () = Int.max 1 (Domain.recommended_domain_count ())

(* The one jobs-resolution policy (bin/hsfq_sim, Torture.sweep and the
   bench all used to roll their own, divergently): <= 0 means "auto",
   one worker per available core — which on a single-core box resolves
   to 1, i.e. the serial path, because any jobs>=2 configuration there
   is pure oversubscription.  An explicit jobs>=2 is honored as given
   (the bench asks for exactly that to measure the overhead). *)
let resolve_jobs jobs = if jobs <= 0 then available_cores () else jobs

let default_jobs () = resolve_jobs 0

let set_minor_heap = function
  | None -> ()
  | Some words ->
    if words > 0 then Gc.set { (Gc.get ()) with Gc.minor_heap_size = words }

(* [workers] spawned domains plus the calling one run the same job: a
   self-scheduling chunk loop over an atomic index (the "deque" is a
   bump counter, which is all a sweep of independent tasks needs).  The
   domains are joined before the results are read, and the join is what
   publishes every worker's stores to the caller. *)
let on_domains ?minor_heap ~workers ~tasks f =
  let n = Array.length tasks in
  let chunk = Int.max 1 (n / (4 * (workers + 1))) in
  let next = Atomic.make 0 in
  (* Option slots keep ['b] boxed, so concurrent stores to distinct
     indices are plain pointer writes (no float-array flattening). *)
  let results = Array.make n None in
  let exns = Array.make n None in
  let first_failed = Atomic.make max_int in
  let rec record_failure i =
    let cur = Atomic.get first_failed in
    if i < cur && not (Atomic.compare_and_set first_failed cur i) then
      record_failure i
  in
  (* Never raises: a task's exception is parked in [exns]. *)
  let job () =
    let continue = ref true in
    while !continue do
      let start = Atomic.fetch_and_add next chunk in
      if start >= n || Atomic.get first_failed < max_int then
        continue := false
      else
        for i = start to Int.min n (start + chunk) - 1 do
          match f tasks.(i) with
          | r -> results.(i) <- Some r
          | exception e ->
            exns.(i) <- Some (e, Printexc.get_raw_backtrace ());
            record_failure i
        done
    done
  in
  (* The calling domain does task work too, so it adopts the worker
     nursery for the duration of the sweep (restored after): every task
     of a ~minor_heap sweep sees the requested nursery, whichever domain
     claims its chunk.  A fresh domain starts on the runtime default
     whatever this domain set, so each worker sizes its own. *)
  let saved = (Gc.get ()).Gc.minor_heap_size in
  (* Backtrace recording is per-domain too and starts off in a new one. *)
  let backtraces = Printexc.backtrace_status () in
  let domains = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Domain.join !domains;
      if Option.is_some minor_heap then
        Gc.set { (Gc.get ()) with Gc.minor_heap_size = saved })
    (fun () ->
      set_minor_heap minor_heap;
      for _ = 1 to workers do
        domains :=
          Domain.spawn (fun () ->
              set_minor_heap minor_heap;
              Printexc.record_backtrace backtraces;
              job ())
          :: !domains
      done;
      job ());
  match Atomic.get first_failed with
  | i when i = max_int ->
    Array.map
      (function Some r -> r | None -> assert false (* all tasks ran *))
      results
  | i -> (
    match exns.(i) with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> assert false (* first_failed only set with exns.(i) *))

let sweep ?minor_heap ~jobs ~tasks f =
  let n = Array.length tasks in
  let jobs = resolve_jobs jobs in
  if jobs <= 1 || n <= 1 then Array.map f tasks
  else on_domains ?minor_heap ~workers:(Int.min (jobs - 1) (n - 1)) ~tasks f

let sweep_seeded ?minor_heap ~jobs ~rng ~tasks f =
  let tasks = Array.mapi (fun i task -> (i, task)) tasks in
  sweep ?minor_heap ~jobs ~tasks (fun (i, task) ->
      f ~rng:(Hsfq_engine.Prng.stream rng i) task)
