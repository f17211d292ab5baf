type wp = {
  obj_addr : int;
  watch_addr : int;
  entry : Context_table.entry;
  fds : (Threads.tid * Hw_breakpoint.fd) list;
  installed_at : float;
  prob_at_install : float;
  serial : int;
}

let num_slots = Hw_breakpoint.num_slots

(* At most [num_slots] watchpoints are live, so they live in that many
   reused slots, one column per field.  [ring] orders the slot numbers:
   its first [len] are the live slots, oldest first — the near-FIFO
   circular buffer — and the rest are free, so an install takes
   [ring.(len)].  Slot [k]'s columns mean something while [k] is live.
   [fds.(tid * num_slots + k)] is thread [tid]'s descriptor for slot [k],
   or -1.  Installing, replacing, removing and the thread hooks write
   these arrays in place: once [fds] covers the threads in use, none of
   them allocates, and none hashes. *)
type t = {
  params : Params.t;
  machine : Machine.t;
  rng : Prng.t;
  objs : int array;
  watch_addrs : int array;
  mutable entries : Context_table.entry array; (* [||] until the first install *)
  installed : float array;
  probs : float array;
  serials : int array;
  ring : int array;
  mutable len : int;
  mutable fds : int array;
  mutable next_serial : int;
  combined : bool option; (* [Params.combined_syscall], passed on as is *)
  c_installs : Metrics.counter;
  c_evictions : Metrics.counter;
  c_replacements : Metrics.counter;
  c_free_removals : Metrics.counter;
  mutable startup : bool;
}

(* [Clock.seconds], computed here: a [float] returned from another module
   is boxed, and an install stores the time. *)
let[@inline] now t =
  float_of_int (Clock.cycles (Machine.clock t.machine))
  /. float_of_int Cost.cycles_per_second

(* ---------- The ring of live slots ---------- *)

(* Free the slot at ring position [i]: the younger ones move up, and the
   slot becomes the first free one. *)
let remove_at t i =
  let k = t.ring.(i) in
  Array.blit t.ring (i + 1) t.ring i (t.len - 1 - i);
  t.len <- t.len - 1;
  t.ring.(t.len) <- k

(* Move the oldest watchpoint to the newest position. *)
let advance t =
  if t.len > 1 then begin
    remove_at t 0;
    t.len <- t.len + 1
  end

(* ---------- Per-thread descriptors ---------- *)

let set_fd t tid k fd =
  let n = Array.length t.fds in
  if (tid + 1) * num_slots > n then begin
    let grown = Array.make (max ((tid + 1) * num_slots) (2 * n)) (-1) in
    Array.blit t.fds 0 grown 0 n;
    t.fds <- grown
  end;
  t.fds.((tid * num_slots) + k) <- fd

(* Close thread [tid]'s descriptor for slot [k], if it holds one. *)
let close_fd t tid k =
  let c = (tid * num_slots) + k in
  if c < Array.length t.fds then begin
    let fd = t.fds.(c) in
    if fd >= 0 then begin
      t.fds.(c) <- -1;
      Machine.remove_watch ?combined:t.combined t.machine fd
    end
  end

let rec close_on t k = function
  | [] -> ()
  | tid :: rest ->
    close_fd t tid k;
    close_on t k rest

(* ---------- Opening one thread's event ---------- *)

(* Install one thread's perf event, absorbing injected failures.  [`EBUSY]
   is transient (a debugger briefly holds the registers), so back off in
   virtual time and retry a bounded number of times; [`EACCES] is a
   permissions failure that retrying cannot fix.  [`ENOSPC] is the
   architectural four-address limit — not a fault — and keeps its historical
   meaning: skip this thread, arm the rest.  The result is the fd, or
   [skipped] or [faulted]. *)
let max_open_attempts = 3
let skipped = -1
let faulted = -2

let record_fault t point =
  Flight_recorder.fault ~at:(Clock.cycles (Machine.clock t.machine)) ~point

let rec open_for t ~watch_addr tid attempt =
  let fd =
    Machine.arm_watch ~combined:t.params.Params.combined_syscall t.machine
      ~addr:watch_addr ~tid
  in
  if fd >= 0 then fd
  else if fd = Hw_breakpoint.enospc then skipped
  else if fd = Hw_breakpoint.eacces then begin
    record_fault t "eacces";
    faulted
  end
  else begin
    record_fault t "ebusy";
    if attempt >= max_open_attempts then faulted
    else begin
      Machine.stall t.machine Cost.ebusy_backoff;
      open_for t ~watch_addr tid (attempt + 1)
    end
  end

(* Open slot [k]'s event on every thread of [tids]; true unless no open
   succeeded and at least one faulted. *)
let rec open_on t k ~watch_addr ~opened ~fault = function
  | [] -> opened || not fault
  | tid :: rest ->
    let fd = open_for t ~watch_addr tid 1 in
    if fd >= 0 then set_fd t tid k fd;
    open_on t k ~watch_addr ~opened:(opened || fd >= 0)
      ~fault:(fault || fd = faulted) rest

let k_installs = Metrics.counter_key "wmu.installs"
let k_evictions = Metrics.counter_key "wmu.evictions"
let k_replacements = Metrics.counter_key "wmu.replacements"
let k_free_removals = Metrics.counter_key "wmu.free_removals"

(* A new thread must observe every installed watchpoint: there is no way
   to know which thread will cause an overflow later.  Oldest first, so
   the new thread's fds number the watchpoints in ring order. *)
let on_spawn t tid =
  for i = 0 to t.len - 1 do
    let k = t.ring.(i) in
    let fd = open_for t ~watch_addr:t.watch_addrs.(k) tid 1 in
    if fd >= 0 then set_fd t tid k fd
  done

let on_exit t tid =
  for i = 0 to t.len - 1 do
    close_fd t tid t.ring.(i)
  done

let create ~params ~machine ~rng =
  let reg = Machine.registry machine in
  let t =
    { params;
      machine;
      rng;
      objs = Array.make num_slots 0;
      watch_addrs = Array.make num_slots 0;
      entries = [||];
      installed = Array.make num_slots 0.0;
      probs = Array.make num_slots 0.0;
      serials = Array.make num_slots 0;
      ring = Array.init num_slots Fun.id;
      len = 0;
      fds = Array.make (8 * num_slots) (-1);
      next_serial = 0;
      combined = Some params.Params.combined_syscall;
      c_installs = Metrics.counter reg k_installs;
      c_evictions = Metrics.counter reg k_evictions;
      c_replacements = Metrics.counter reg k_replacements;
      c_free_removals = Metrics.counter reg k_free_removals;
      startup = true }
  in
  let threads = Machine.threads machine in
  Threads.on_spawn threads (on_spawn t);
  Threads.on_exit threads (on_exit t);
  t

let has_free_slot t = t.len < num_slots

(* The paper reduces an installed watchpoint's probability once it "has
   been installed for a long period of time (e.g., 10 seconds)": a step
   per elapsed half-life, so a freshly installed watchpoint is not
   instantly outbid by an equal-probability newcomer. *)
let[@inline] decayed t ~installed_at ~prob =
  let age = now t -. installed_at in
  let steps = int_of_float (age /. t.params.Params.installed_halflife_sec) in
  prob *. (0.5 ** float_of_int steps)

let decayed_prob t wp =
  decayed t ~installed_at:wp.installed_at ~prob:wp.prob_at_install

let[@inline] slot_decayed t k =
  decayed t ~installed_at:t.installed.(k) ~prob:t.probs.(k)

let install_free t ~obj_addr ~watch_addr ~entry =
  let k = t.ring.(t.len) in
  if
    not
      (open_on t k ~watch_addr ~opened:false ~fault:false
         (Threads.alive (Machine.threads t.machine)))
  then
    (* Every open failed for environmental reasons (EBUSY past the retry
       budget, or EACCES): nothing is armed, so claiming a ring slot would
       just shadow a live candidate.  Report failure and let the caller
       degrade.  Without faults this branch is unreachable and installation
       keeps its historical always-succeeds behaviour. *)
    false
  else begin
    if Array.length t.entries = 0 then t.entries <- Array.make num_slots entry;
    t.objs.(k) <- obj_addr;
    t.watch_addrs.(k) <- watch_addr;
    t.entries.(k) <- entry;
    t.installed.(k) <- now t;
    t.probs.(k) <- entry.Context_table.s.Context_table.prob;
    t.serials.(k) <- t.next_serial;
    t.next_serial <- t.next_serial + 1;
    t.len <- t.len + 1;
    Metrics.incr t.c_installs;
    Flight_recorder.watch ~at:(Clock.cycles (Machine.clock t.machine))
      ~addr:obj_addr ~ctx:entry.Context_table.id;
    if Metrics.count t.c_installs >= num_slots then t.startup <- false;
    true
  end

(* The phases below are entered and left by hand rather than through
   [Machine.in_phase], whose closure would allocate on every call. *)
let install t ~obj_addr ~watch_addr ~entry =
  if t.len = num_slots then failwith "Watch_table.install: no free slot";
  let started = Machine.enter_phase t.machine Profiler.Wmu_install in
  match install_free t ~obj_addr ~watch_addr ~entry with
  | armed ->
    Machine.leave_phase t.machine Profiler.Wmu_install started;
    armed
  | exception e ->
    Machine.leave_phase t.machine Profiler.Wmu_install started;
    raise e

(* Remove the watchpoint at ring position [i]: disable and close its
   event on every thread. *)
let evict t i =
  let started = Machine.enter_phase t.machine Profiler.Wmu_evict in
  match close_on t t.ring.(i) (Threads.alive (Machine.threads t.machine)) with
  | () ->
    remove_at t i;
    Metrics.incr t.c_evictions;
    Machine.leave_phase t.machine Profiler.Wmu_evict started
  | exception e ->
    Machine.leave_phase t.machine Profiler.Wmu_evict started;
    raise e

let replace_victim t i ~obj_addr ~watch_addr ~entry =
  let k = t.ring.(i) in
  Metrics.incr t.c_replacements;
  Flight_recorder.replace ~at:(Clock.cycles (Machine.clock t.machine))
    ~victim:t.objs.(k) ~victim_ctx:t.entries.(k).Context_table.id
    ~by:obj_addr ~by_ctx:entry.Context_table.id;
  let started = Machine.enter_phase t.machine Profiler.Wmu_replace in
  match
    evict t i;
    install t ~obj_addr ~watch_addr ~entry
  with
  | armed ->
    Machine.leave_phase t.machine Profiler.Wmu_replace started;
    armed
  | exception e ->
    Machine.leave_phase t.machine Profiler.Wmu_replace started;
    raise e

(* Random policy: the first watchpoint from ring position [start + j]
   on that yields to [new_prob], or -1 after all [len]. *)
let rec random_victim t ~start ~new_prob j =
  if j >= t.len then -1
  else
    let i = (start + j) mod t.len in
    if slot_decayed t t.ring.(i) < new_prob then i
    else random_victim t ~start ~new_prob (j + 1)

(* Near-FIFO policy: the oldest watchpoint if it yields, else rotate it to
   the newest position and try the next, at most [len] times: 0, or -1.
   The ring then sits past the replaced position. *)
let rec fifo_victim t ~new_prob j =
  if j >= t.len then -1
  else if slot_decayed t t.ring.(0) < new_prob then 0
  else begin
    advance t;
    fifo_victim t ~new_prob (j + 1)
  end

let try_replace t ~obj_addr ~watch_addr ~entry ~new_prob =
  let victim =
    match t.params.Params.policy with
    | Params.Naive -> -1
    | Params.Random ->
      (* Pick a random victim; if it does not yield, scan onward from it,
         giving up after one full cycle. *)
      if t.len = 0 then -1 else random_victim t ~start:(Prng.int t.rng t.len) ~new_prob 0
    | Params.Near_fifo -> fifo_victim t ~new_prob 0
  in
  victim >= 0 && replace_victim t victim ~obj_addr ~watch_addr ~entry

(* The ring position of the newest watchpoint on [obj_addr], or -1. *)
let rec newest_on t obj_addr i =
  if i < 0 || t.objs.(t.ring.(i)) = obj_addr then i else newest_on t obj_addr (i - 1)

let on_free t ~obj_addr =
  let i = newest_on t obj_addr (t.len - 1) in
  if i < 0 then false
  else begin
    evict t i;
    Metrics.incr t.c_free_removals;
    Flight_recorder.unwatch_free ~at:(Clock.cycles (Machine.clock t.machine))
      ~addr:obj_addr;
    true
  end

(* ---------- Views ---------- *)

let view t k =
  let fds =
    List.filter_map
      (fun tid ->
        let c = (tid * num_slots) + k in
        if c < Array.length t.fds && t.fds.(c) >= 0 then Some (tid, t.fds.(c))
        else None)
      (Threads.alive (Machine.threads t.machine))
  in
  { obj_addr = t.objs.(k);
    watch_addr = t.watch_addrs.(k);
    entry = t.entries.(k);
    fds;
    installed_at = t.installed.(k);
    prob_at_install = t.probs.(k);
    serial = t.serials.(k) }

let rec position_of_serial t serial i =
  if i >= t.len || t.serials.(t.ring.(i)) = serial then i
  else position_of_serial t serial (i + 1)

let remove t wp =
  let i = position_of_serial t wp.serial 0 in
  if i < t.len then evict t i

(* The paper's signal handler compares the trap's descriptor with the saved
   ones one by one: here, every live slot's column of [fds]. *)
let find_by_fd t fd =
  let rows = Array.length t.fds / num_slots in
  let rec in_slot i tid =
    if i >= t.len then None
    else if tid >= rows then in_slot (i + 1) 0
    else if t.fds.((tid * num_slots) + t.ring.(i)) = fd then Some (view t t.ring.(i))
    else in_slot i (tid + 1)
  in
  if fd < 0 then None else in_slot 0 0

let in_startup t = t.startup
let installs t = Metrics.count t.c_installs
let live t = List.init t.len (fun i -> view t t.ring.(i))
