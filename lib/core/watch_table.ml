type wp = {
  obj_addr : int;
  watch_addr : int;
  entry : Context_table.entry;
  mutable fds : (Threads.tid * Hw_breakpoint.fd) list;
  installed_at : float;
  prob_at_install : float;
}

type t = {
  params : Params.t;
  machine : Machine.t;
  rng : Prng.t;
  ring : wp Ring.t; (* oldest-first; the near-FIFO circular buffer *)
  by_fd : wp Int_table.t;
  combined : bool option; (* [Params.combined_syscall], passed on as is *)
  c_installs : Metrics.counter;
  c_evictions : Metrics.counter;
  c_replacements : Metrics.counter;
  c_free_removals : Metrics.counter;
  mutable startup : bool;
}

let now t = Clock.seconds (Machine.clock t.machine)

(* Install one thread's perf event, absorbing injected failures.  [`EBUSY]
   is transient (a debugger briefly holds the registers), so back off in
   virtual time and retry a bounded number of times; [`EACCES] is a
   permissions failure that retrying cannot fix.  [`ENOSPC] is the
   architectural four-address limit — not a fault — and keeps its historical
   meaning: skip this thread, arm the rest. *)
let max_open_attempts = 3

let install_for_tid t ~combined ~watch_addr tid =
  let machine = t.machine in
  let record_fault point =
    Flight_recorder.fault ~at:(Clock.cycles (Machine.clock machine)) ~point
  in
  let rec go attempt =
    match Machine.install_watch ~combined machine ~addr:watch_addr ~tid with
    | Ok fd -> `Fd fd
    | Error `ENOSPC -> `Skip
    | Error `EACCES ->
      record_fault "eacces";
      `Fault
    | Error `EBUSY ->
      record_fault "ebusy";
      if attempt >= max_open_attempts then `Fault
      else begin
        Machine.stall machine Cost.ebusy_backoff;
        go (attempt + 1)
      end
  in
  go 1

let k_installs = Metrics.counter_key "wmu.installs"
let k_evictions = Metrics.counter_key "wmu.evictions"
let k_replacements = Metrics.counter_key "wmu.replacements"
let k_free_removals = Metrics.counter_key "wmu.free_removals"

let create ~params ~machine ~rng =
  let reg = Machine.registry machine in
  let t =
    { params;
      machine;
      rng;
      ring = Ring.create ~capacity:Hw_breakpoint.num_slots;
      by_fd = Int_table.create 64;
      combined = Some params.Params.combined_syscall;
      c_installs = Metrics.counter reg k_installs;
      c_evictions = Metrics.counter reg k_evictions;
      c_replacements = Metrics.counter reg k_replacements;
      c_free_removals = Metrics.counter reg k_free_removals;
      startup = true }
  in
  let combined = params.Params.combined_syscall in
  let threads = Machine.threads machine in
  Threads.on_spawn threads (fun tid ->
      (* A new thread must observe every installed watchpoint: there is no
         way to know which thread will cause an overflow later. *)
      Ring.iter
        (fun wp ->
          match install_for_tid t ~combined ~watch_addr:wp.watch_addr tid with
          | `Fd fd ->
            wp.fds <- (tid, fd) :: wp.fds;
            Int_table.replace t.by_fd fd wp
          | `Skip | `Fault -> ())
        t.ring);
  Threads.on_exit threads (fun tid ->
      Ring.iter
        (fun wp ->
          let mine, rest = List.partition (fun (t', _) -> t' = tid) wp.fds in
          List.iter
            (fun (_, fd) ->
              Machine.remove_watch ~combined machine fd;
              Int_table.remove t.by_fd fd)
            mine;
          wp.fds <- rest)
        t.ring);
  t

let has_free_slot t = not (Ring.is_full t.ring)

let decayed_prob t wp =
  (* The paper reduces an installed watchpoint's probability once it "has
     been installed for a long period of time (e.g., 10 seconds)": a step
     per elapsed half-life, so a freshly installed watchpoint is not
     instantly outbid by an equal-probability newcomer. *)
  let age = now t -. wp.installed_at in
  let steps = int_of_float (age /. t.params.Params.installed_halflife_sec) in
  wp.prob_at_install *. (0.5 ** float_of_int steps)

let install t ~obj_addr ~watch_addr ~entry =
  if Ring.is_full t.ring then failwith "Watch_table.install: no free slot";
  Machine.in_phase t.machine Profiler.Wmu_install @@ fun () ->
  let combined = t.params.Params.combined_syscall in
  let faulted = ref false in
  let fds =
    List.filter_map
      (fun tid ->
        match install_for_tid t ~combined ~watch_addr tid with
        | `Fd fd -> Some (tid, fd)
        | `Skip -> None
        | `Fault ->
          faulted := true;
          None)
      (Threads.alive (Machine.threads t.machine))
  in
  if fds = [] && !faulted then
    (* Every open failed for environmental reasons (EBUSY past the retry
       budget, or EACCES): nothing is armed, so claiming a ring slot would
       just shadow a live candidate.  Report failure and let the caller
       degrade.  Without faults this branch is unreachable and installation
       keeps its historical always-succeeds behaviour. *)
    false
  else begin
    let wp =
      { obj_addr;
        watch_addr;
        entry;
        fds;
        installed_at = now t;
        prob_at_install = Context_table.prob entry }
    in
    Ring.push t.ring wp;
    List.iter (fun (_, fd) -> Int_table.replace t.by_fd fd wp) fds;
    Metrics.incr t.c_installs;
    Flight_recorder.watch ~at:(Clock.cycles (Machine.clock t.machine))
      ~addr:obj_addr ~ctx:entry.Context_table.id;
    if Metrics.count t.c_installs >= Hw_breakpoint.num_slots then
      t.startup <- false;
    true
  end

let rec close_fds t = function
  | [] -> ()
  | (_, fd) :: rest ->
    Machine.remove_watch ?combined:t.combined t.machine fd;
    Int_table.remove t.by_fd fd;
    close_fds t rest

(* The position of [wp] in the ring, oldest first. *)
let rec ring_index ring wp i = if Ring.get ring i == wp then i else ring_index ring wp (i + 1)

let evict t wp =
  close_fds t wp.fds;
  wp.fds <- [];
  Ring.remove_at t.ring (ring_index t.ring wp 0);
  Metrics.incr t.c_evictions

(* [Machine.in_phase] without its closure: a watched object's [free] goes
   through here, and allocates nothing. *)
let remove t wp =
  let started = Machine.enter_phase t.machine Profiler.Wmu_evict in
  match evict t wp with
  | () -> Machine.leave_phase t.machine Profiler.Wmu_evict started
  | exception e ->
    Machine.leave_phase t.machine Profiler.Wmu_evict started;
    raise e

let replace_victim t victim ~obj_addr ~watch_addr ~entry =
  Metrics.incr t.c_replacements;
  Flight_recorder.replace ~at:(Clock.cycles (Machine.clock t.machine))
    ~victim:victim.obj_addr ~victim_ctx:victim.entry.Context_table.id
    ~by:obj_addr ~by_ctx:entry.Context_table.id;
  Machine.in_phase t.machine Profiler.Wmu_replace (fun () ->
      remove t victim;
      install t ~obj_addr ~watch_addr ~entry)

let try_replace t ~obj_addr ~watch_addr ~entry ~new_prob =
  match t.params.Params.policy with
  | Params.Naive -> false
  | Params.Random ->
    (* Pick a random victim; if it does not yield, scan onward from it,
       giving up after one full cycle. *)
    let slots = Ring.to_list t.ring in
    let n = List.length slots in
    if n = 0 then false
    else begin
      let start = Prng.int t.rng n in
      let rec scan k =
        if k >= n then false
        else
          let victim = List.nth slots ((start + k) mod n) in
          if decayed_prob t victim < new_prob then
            replace_victim t victim ~obj_addr ~watch_addr ~entry
          else scan (k + 1)
      in
      scan 0
    end
  | Params.Near_fifo ->
    (* Oldest-first: replace the first watchpoint that yields.  The ring
       pointer then naturally sits past the replaced position. *)
    let rec scan k n =
      if k >= n then false
      else
        match Ring.peek t.ring with
        | None -> false
        | Some victim ->
          if decayed_prob t victim < new_prob then
            replace_victim t victim ~obj_addr ~watch_addr ~entry
          else begin
            Ring.advance t.ring;
            scan (k + 1) n
          end
    in
    scan 0 (Ring.length t.ring)

(* The newest watchpoint on [obj_addr], scanning the ring's few slots
   newest first; [None] is never built, so a miss allocates nothing. *)
let rec newest_on ring obj_addr i =
  if i < 0 then i
  else if (Ring.get ring i).obj_addr = obj_addr then i
  else newest_on ring obj_addr (i - 1)

let on_free t ~obj_addr =
  let i = newest_on t.ring obj_addr (Ring.length t.ring - 1) in
  if i < 0 then false
  else begin
    remove t (Ring.get t.ring i);
    Metrics.incr t.c_free_removals;
    Flight_recorder.unwatch_free ~at:(Clock.cycles (Machine.clock t.machine))
      ~addr:obj_addr;
    true
  end

let in_startup t = t.startup
let find_by_fd t fd = Int_table.find_opt t.by_fd fd
let installs t = Metrics.count t.c_installs
let live t = Ring.to_list t.ring
