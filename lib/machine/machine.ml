type trap_info = {
  fd : Hw_breakpoint.fd;
  trap_addr : int;
  access_addr : int;
  access_len : int;
  access_kind : Hw_breakpoint.access_kind;
  tid : Threads.tid;
  pc : int;
}

type t = {
  mem : Sparse_mem.t;
  clock : Clock.t;
  threads : Threads.t;
  hw : Hw_breakpoint.t;
  telemetry : Telemetry.t;
  cells : int array; (* the telemetry profiler's per-phase cycles *)
  (* Hot counters, resolved once at creation: the per-event paths bump a
     record field instead of probing the registry by name. *)
  c_traps : Metrics.counter;
  c_traps_unhandled : Metrics.counter;
  c_traps_dropped : Metrics.counter;
  c_traps_delayed : Metrics.counter;
  c_syscalls : Metrics.counter;
  c_accesses : Metrics.counter;
  faults : Fault_injector.t option;
  mutable phase : Profiler.phase;
  mutable n_work_cycles : int;
  rng : Prng.t;
  mutable pc : int;
  mutable brk : int;
  mutable trap_handler : (trap_info -> unit) option;
  mutable in_trap : bool;
  mutable backtrace_provider : (unit -> int list) option;
  (* Active-response plumbing (failure-oblivious mode).  Armed explicitly by
     the response layer; every field below is dead — never read, never
     written — while [respond_armed] is false, so an un-armed machine stays
     bit-identical to one built before the fields existed. *)
  mutable respond_armed : bool;
  mutable squash_old : int;      (** pre-write value, captured only when armed *)
  mutable squash_pending : bool; (** response layer asked to undo the write *)
  mutable read_override : int option; (** response layer's substitute load value *)
  mutable on_squash : (addr:int -> len:int -> value:int -> unit) option;
}

let heap_base = 0x1000_0000

let k_traps = Metrics.counter_key "trap.count"
let k_traps_unhandled = Metrics.counter_key "trap.unhandled"
let k_traps_dropped = Metrics.counter_key "trap.dropped"
let k_traps_delayed = Metrics.counter_key "trap.delayed"
let k_syscalls = Metrics.counter_key "machine.syscalls"
let k_accesses = Metrics.counter_key "machine.accesses"

let create ?(seed = 42) ?faults () =
  let telemetry = Telemetry.create () in
  let reg = Telemetry.metrics telemetry in
  { mem = Sparse_mem.create ();
    clock = Clock.create ();
    threads = Threads.create ();
    hw = Hw_breakpoint.create ?faults ();
    telemetry;
    cells = Profiler.cells (Telemetry.profiler telemetry);
    c_traps = Metrics.counter reg k_traps;
    c_traps_unhandled = Metrics.counter reg k_traps_unhandled;
    c_traps_dropped = Metrics.counter reg k_traps_dropped;
    c_traps_delayed = Metrics.counter reg k_traps_delayed;
    faults;
    c_syscalls = Metrics.counter reg k_syscalls;
    c_accesses = Metrics.counter reg k_accesses;
    phase = Profiler.App;
    n_work_cycles = 0;
    rng = Prng.create ~seed;
    pc = 0;
    brk = heap_base;
    trap_handler = None;
    in_trap = false;
    backtrace_provider = None;
    respond_armed = false;
    squash_old = 0;
    squash_pending = false;
    read_override = None;
    on_squash = None }

let mem t = t.mem
let clock t = t.clock
let threads t = t.threads
let hw t = t.hw
let rng t = t.rng
let set_pc t pc = t.pc <- pc
let pc t = t.pc

let telemetry t = t.telemetry
let registry t = Telemetry.metrics t.telemetry

(* Every cycle the machine advances goes through [charge_to], which adds
   it to one phase's profiler cell — so the profiler's per-phase totals
   sum exactly to the clock, by construction.  It runs for every
   statement and every access, so it inlines, and so do its callees' fast
   paths.  It checks nothing: [n] is a cost constant or a count that a
   public entry point ([work], [work_as], [stall]) has checked once, and
   [i] is a phase's index, within the cells. *)
let[@inline] charge_to t i n =
  Array.unsafe_set t.cells i (Array.unsafe_get t.cells i + n);
  Telemetry.tick t.telemetry ~now:(Clock.forward t.clock n)

let[@inline] charge t n = charge_to t (Profiler.index t.phase) n

let negative () = invalid_arg "Clock.advance: negative cycles"

(* Outermost phase wins: work nested inside an explicitly attributed phase
   (e.g. the WMU removing a watchpoint from inside the trap handler) stays
   charged to the enclosing phase, matching how the paper's Figure 7 buckets
   whole mechanisms rather than their inner helpers. *)
let enter_phase t phase =
  if t.phase <> Profiler.App then -1
  else begin
    t.phase <- phase;
    Clock.cycles t.clock
  end

let leave_phase t phase started =
  if started >= 0 then begin
    t.phase <- Profiler.App;
    (* Flight-recorder span for the outermost interval.  Reading the
       clock never advances it, so recording cannot perturb the run. *)
    if Flight_recorder.active () then begin
      let stopped = Clock.cycles t.clock in
      if stopped > started then
        Flight_recorder.phase ~phase ~start:started ~stop:stopped
    end
  end

let in_phase t phase f =
  let started = enter_phase t phase in
  if started < 0 then f ()
  else Fun.protect ~finally:(fun () -> leave_phase t phase started) f

let set_backtrace_provider t f = t.backtrace_provider <- Some f

let backtrace t =
  match t.backtrace_provider with None -> [ t.pc ] | Some f -> f ()

let fault_fires t point =
  match t.faults with
  | None -> false
  | Some inj -> Fault_injector.fire ~now:(Clock.seconds t.clock) inj point

let deliver_trap t ~fd ~access_addr ~len ~kind =
  if fault_fires t Fault_plan.Trap_drop then begin
    (* The SIGTRAP was lost in delivery: the hardware fired but the handler
       never runs.  Counted, recorded, and otherwise costless — the kernel
       did no dispatch work for a signal it dropped. *)
    Metrics.incr t.c_traps_dropped;
    if Flight_recorder.active () then
      Flight_recorder.fault ~at:(Clock.cycles t.clock) ~point:"trap-drop"
  end
  else begin
  let delayed = fault_fires t Fault_plan.Trap_delay in
  if delayed then begin
    Metrics.incr t.c_traps_delayed;
    if Flight_recorder.active () then
      Flight_recorder.fault ~at:(Clock.cycles t.clock) ~point:"trap-delay"
  end;
  Metrics.incr t.c_traps;
  if Flight_recorder.active () then
    Flight_recorder.trap ~at:(Clock.cycles t.clock) ~addr:access_addr
      ~access:(match kind with Hw_breakpoint.Read -> "read" | Hw_breakpoint.Write -> "write")
      ~tid:(Threads.current t.threads);
  in_phase t Profiler.Trap_dispatch (fun () ->
      if delayed then charge t Cost.trap_delay_extra;
      charge t Cost.trap_delivery;
      match t.trap_handler with
      | None -> Metrics.incr t.c_traps_unhandled
      | Some handler ->
        (* The handler itself may touch memory; hardware would not re-trap on
           the kernel's own accesses, so nested checking is suppressed. *)
        if not t.in_trap then begin
          t.in_trap <- true;
          let info =
            { fd;
              trap_addr = access_addr;
              access_addr;
              access_len = len;
              access_kind = kind;
              tid = Threads.current t.threads;
              pc = t.pc }
          in
          Fun.protect ~finally:(fun () -> t.in_trap <- false) (fun () -> handler info)
        end)
  end

let[@inline] checked_access t addr len kind =
  Metrics.incr t.c_accesses;
  charge t Cost.memory_access;
  if not t.in_trap then
    match
      Hw_breakpoint.check_access t.hw ~addr ~len ~kind
        ~tid:(Threads.current t.threads)
    with
    | None -> ()
    | Some fd -> deliver_trap t ~fd ~access_addr:addr ~len ~kind

(* Failure-oblivious hooks.  Like a real data breakpoint, the watchpoint
   trap fires {e after} the access completes — so redirection is
   compensation, not prevention: the response layer (from the trap handler
   running inside [checked_access], or from a tool's pre-access shadow
   check) requests a squash or an override, and the access path applies it
   on the way out.  A squashed store restores the pre-write value and
   reports the discarded value through [on_squash] (the response layer's
   shadow slab); an overridden load returns the substitute value (the slab
   lookup).  Every conditional below is on [respond_armed], a plain field
   read with no clock charge, keeping the un-armed machine observably
   identical. *)

let arm_respond t ~on_squash =
  t.respond_armed <- true;
  t.on_squash <- Some on_squash

let squash_write t = if t.respond_armed then t.squash_pending <- true
let override_read t v = if t.respond_armed then t.read_override <- Some v

let resolve_read t v =
  match t.read_override with
  | None -> v
  | Some v' ->
    t.read_override <- None;
    v'

(* The pending-squash flag is {e not} reset on store entry: a tool whose
   shadow check runs before the machine access (ASan) arms it ahead of the
   store it wants undone, and the flag is always consumed by that store. *)
let apply_squash t addr len read write =
  let value = read t.mem addr in
  write t.mem addr t.squash_old;
  t.squash_pending <- false;
  match t.on_squash with
  | Some f -> f ~addr ~len ~value
  | None -> ()

let load_word t addr =
  let v = Sparse_mem.read_int t.mem addr in
  checked_access t addr 8 Hw_breakpoint.Read;
  if t.respond_armed then resolve_read t v else v

let store_word t addr v =
  if t.respond_armed && not t.in_trap then begin
    (* The pre-write capture rides the write itself (one chunk lookup, not
       a read followed by a write), so arming costs the unfaulted path
       almost nothing. *)
    t.squash_old <- Sparse_mem.exchange_int t.mem addr v;
    checked_access t addr 8 Hw_breakpoint.Write;
    if t.squash_pending then
      apply_squash t addr 8 Sparse_mem.read_int Sparse_mem.write_int
  end
  else begin
    Sparse_mem.write_int t.mem addr v;
    checked_access t addr 8 Hw_breakpoint.Write
  end

let load_byte t addr =
  let v = Sparse_mem.read_u8 t.mem addr in
  checked_access t addr 1 Hw_breakpoint.Read;
  if t.respond_armed then resolve_read t v else v

let store_byte t addr v =
  if t.respond_armed && not t.in_trap then begin
    t.squash_old <- Sparse_mem.exchange_u8 t.mem addr v;
    checked_access t addr 1 Hw_breakpoint.Write;
    if t.squash_pending then
      apply_squash t addr 1 Sparse_mem.read_u8 Sparse_mem.write_u8
  end
  else begin
    Sparse_mem.write_u8 t.mem addr v;
    checked_access t addr 1 Hw_breakpoint.Write
  end

let load_word_unwatched t addr = Sparse_mem.read_int t.mem addr
let store_word_unwatched t addr v = Sparse_mem.write_int t.mem addr v

(* Rejected before [n_work_cycles] moves, as in [work_as], so a caught
   [Invalid_argument] leaves the work count agreeing with the clock. *)
let[@inline] work t cycles =
  if cycles < 0 then negative ();
  t.n_work_cycles <- t.n_work_cycles + cycles;
  charge t cycles

let stall t cycles =
  if cycles < 0 then negative ();
  charge t cycles

(* The per-event attribution of the allocator, the SMU and the canary:
   [in_phase t phase (fun () -> work t cycles)], allocating nothing.  One
   compare decides that the outermost phase wins; only an outermost
   charge is a span of its own (reading the clock never advances it, so
   recording cannot perturb the run). *)
let work_as t phase cycles =
  if cycles < 0 then negative ();
  t.n_work_cycles <- t.n_work_cycles + cycles;
  if t.phase != Profiler.App then charge t cycles
  else begin
    charge_to t (Profiler.index phase) cycles;
    if cycles > 0 && Flight_recorder.active () then begin
      let stopped = Clock.cycles t.clock in
      Flight_recorder.phase ~phase ~start:(stopped - cycles) ~stop:stopped
    end
  end

let charge_syscalls t n =
  Metrics.add t.c_syscalls n;
  charge t (n * Cost.syscall)

let brk t = t.brk

let sbrk t n =
  if n < 0 then invalid_arg "Machine.sbrk: negative increment";
  if n > max_int - 15 - t.brk then invalid_arg "Machine.sbrk: break overflows";
  let aligned = (n + 15) land lnot 15 in
  let old = t.brk in
  t.brk <- t.brk + aligned;
  old

let set_trap_handler t h = t.trap_handler <- Some h
let clear_trap_handler t = t.trap_handler <- None
let trap_count t = Metrics.count t.c_traps
let access_count t = Metrics.count t.c_accesses
let syscall_count t = Metrics.count t.c_syscalls
let work_cycles t = t.n_work_cycles

let arm_watch ~combined t ~addr ~tid =
  (* Only a fault injector reads the time: without one, opening an event
     for each of many threads boxes no clock reading per thread. *)
  let now = match t.faults with None -> None | Some _ -> Some (Clock.seconds t.clock) in
  let fd = Hw_breakpoint.open_armed ?now t.hw ~addr ~tid in
  charge_syscalls t (if fd < 0 || combined then 1 else 6);
  fd

let install_watch ?(combined = false) t ~addr ~tid =
  Hw_breakpoint.open_result (arm_watch ~combined t ~addr ~tid)

let remove_watch ?(combined = false) t fd =
  Hw_breakpoint.disable_close t.hw fd;
  charge_syscalls t (if combined then 1 else 2)
