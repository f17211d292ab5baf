let default_domains () = Domain.recommended_domain_count ()

(* Injected worker crashes use the injector's stateless [indexed] draws: a
   pure function of (plan seed, point, chunk index, attempt), so the set of
   crashed chunks is identical for any domain count and any scheduling.  A
   crash kills the attempt {e before} the chunk computes (the worker dies
   picking it up), the chunk is requeued once, and a chunk whose retry also
   crashes is left for a serial fallback pass in the calling domain — so
   [f] still runs exactly once per index and the results are bit-identical
   to an unfaulted map. *)
let crashes faults gi attempt =
  match faults with
  | None -> false
  | Some inj ->
    Fault_injector.indexed inj Fault_plan.Worker_crash ~index:gi ~attempt

(* Tally injected crashes from the calling domain only — the injector's
   counters are not synchronized. *)
let record_crashes ?faults ~index_base n =
  match faults with
  | None -> ()
  | Some inj ->
    for i = 0 to n - 1 do
      let gi = index_base + i in
      if crashes faults gi 1 then begin
        Fault_injector.record inj Fault_plan.Worker_crash;
        if crashes faults gi 2 then
          Fault_injector.record inj Fault_plan.Worker_crash
      end
    done

type worker = {
  slot : int;
  mutable executed : int;
  mutable busy_seconds : float;
  mutable last_stop : float;
  mutable spans : (int * float * float) list;
}

let map_stats ?faults ?(index_base = 0) ?(record_spans = false) ~domains n
    ~f =
  if domains < 1 then invalid_arg "Pool.map_stats: domains < 1";
  if n < 0 then invalid_arg "Pool.map_stats: negative size";
  record_crashes ?faults ~index_base n;
  let width = min domains (max n 1) in
  (* Stat records are created in the calling domain, touched by exactly
     one worker during the parallel section, and read back only after
     every domain has joined — no synchronization needed. *)
  let workers =
    Array.init width (fun slot ->
        { slot; executed = 0; busy_seconds = 0.0; last_stop = 0.0; spans = [] })
  in
  let run_chunk slot i =
    let w = workers.(slot) in
    let t0 = Unix.gettimeofday () in
    let v = f i in
    let t1 = Unix.gettimeofday () in
    w.executed <- w.executed + 1;
    w.busy_seconds <- w.busy_seconds +. (t1 -. t0);
    w.last_stop <- t1;
    if record_spans then w.spans <- (i, t0, t1) :: w.spans;
    v
  in
  let results =
    if width <= 1 then
      (* Serial execution is already the degraded mode: crashes change the
         bookkeeping above but not the computation. *)
      Array.init n (run_chunk 0)
    else begin
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let failure = Atomic.make None in
      let rec worker slot =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let gi = index_base + i in
          (if crashes faults gi 1 then begin
             (* Worker crashed picking up this chunk; requeue it once. *)
             if not (crashes faults gi 2) then
               match run_chunk slot i with
               | v -> results.(i) <- Some v
               | exception e ->
                 ignore (Atomic.compare_and_set failure None (Some e));
                 Atomic.set next n
             (* else: double crash — left for the serial fallback *)
           end
           else
             match run_chunk slot i with
             | v -> results.(i) <- Some v
             | exception e ->
               (* First failure wins; parking [next] past [n] cancels the
                  remaining indices on every domain. *)
               ignore (Atomic.compare_and_set failure None (Some e));
               Atomic.set next n);
          worker slot
        end
      in
      let spawned = ref [] in
      Fun.protect
        ~finally:(fun () ->
          (* Always join every spawned domain — even when a spawn or the
             inline worker raised.  A leaked domain keeps running past the
             caller's recovery and aborts the process at exit. *)
          List.iter
            (fun d ->
              match Domain.join d with
              | () -> ()
              | exception e ->
                ignore (Atomic.compare_and_set failure None (Some e)))
            !spawned)
        (fun () ->
          for slot = 1 to width - 1 do
            spawned := Domain.spawn (fun () -> worker slot) :: !spawned
          done;
          worker 0);
      (match Atomic.get failure with Some e -> raise e | None -> ());
      Array.mapi
        (fun i -> function
          | Some v -> v
          | None ->
            (* Both attempts crashed: degrade this chunk to the caller's
               domain.  [f] has not run for it yet. *)
            run_chunk 0 i)
        results
    end
  in
  (results, workers)

let map ?faults ?index_base ~domains n ~f =
  fst (map_stats ?faults ?index_base ~domains n ~f)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)
