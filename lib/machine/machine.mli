(** The simulated machine: memory, threads, debug hardware, signals, clock.

    This is the process-level facade the allocator, the MiniC interpreter,
    and the detection tools all share.  Every load/store issued here is
    checked against the armed debug registers, and a hit synchronously runs
    the registered SIGTRAP handler {e on the accessing thread} — the
    delivery discipline Section III-C1 of the paper takes care to arrange
    via [F_SETOWN].  Like x86 data breakpoints, the trap fires {e after}
    the access completes. *)

type t

type trap_info = {
  fd : Hw_breakpoint.fd;        (** which perf event fired (paper: read from [siginfo_t]) *)
  trap_addr : int;              (** the watched address that was hit *)
  access_addr : int;            (** address of the offending access *)
  access_len : int;             (** width of the access in bytes (1 or 8) *)
  access_kind : Hw_breakpoint.access_kind;
  tid : Threads.tid;            (** thread that performed the access *)
  pc : int;                     (** code address of the faulting statement *)
}

val create : ?seed:int -> ?faults:Fault_injector.t -> unit -> t
(** Build a machine.  [seed] (default 42) seeds the machine-level PRNG from
    which per-thread generators are split.  [faults] arms deterministic
    fault injection: [perf_event_open] can fail with [`EBUSY]/[`EACCES] and
    SIGTRAP delivery can be dropped or delayed (see {!Fault_plan}).  The
    injector draws from its own stream, so a machine with no injector — or
    an all-zero plan — is bit-identical to one never offered faults. *)

(** {1 Component access} *)

val mem : t -> Sparse_mem.t
val clock : t -> Clock.t
val threads : t -> Threads.t
val hw : t -> Hw_breakpoint.t
val counters : t -> Stats.Counter.t
(** Legacy Stats view of the trap counters ([traps], [traps_unhandled],
    [traps_dropped], [traps_delayed]).  Derived on demand from the metrics
    registry — the single counting path — so it can never diverge from
    {!registry}; kept until the Stats.Counter vocabulary is retired. *)

val rng : t -> Prng.t
(** The machine's root generator; tools split per-thread generators off it. *)

val telemetry : t -> Telemetry.t
(** This machine's telemetry bundle.  The allocator and the detection tools
    register their counters/histograms here and the profiler receives every
    cycle the machine charges. *)

val registry : t -> Metrics.t
(** Shorthand for [Telemetry.metrics (telemetry t)]. *)

val faults : t -> Fault_injector.t option
(** The injector this machine was armed with, if any — shared with tools
    that inject their own faults (persistence, fleet) so one plan covers
    the whole run. *)

(** {1 Execution context} *)

val set_pc : t -> int -> unit
(** Record the code address of the statement about to execute; traps report
    it. *)

val pc : t -> int

val set_backtrace_provider : t -> (unit -> int list) -> unit
(** Install the process stack walker.  The executing program (the MiniC
    interpreter, or a synthetic driver) provides it; tools call
    {!backtrace} for full calling contexts — the analogue of glibc's
    [backtrace], and priced accordingly by callers via {!Cost.backtrace_full}. *)

val backtrace : t -> int list
(** Current full calling context, innermost code address first.  Returns
    [[pc]] if no provider is installed. *)

(** {1 Memory accesses}

    All accesses advance the clock by {!Cost.memory_access} and are checked
    against the debug registers for the current thread. *)

val load_word : t -> int -> int
val store_word : t -> int -> int -> unit
val load_byte : t -> int -> int
val store_byte : t -> int -> int -> unit

(** {2 Active response (failure-oblivious mode)}

    Like a real data breakpoint, the watchpoint trap fires {e after} the
    access completes, so the response layer compensates rather than
    prevents: during the access — from the trap handler, or from a tool's
    pre-access shadow check — it may ask the machine to squash the store
    (restore the pre-write value) or override the load (return a substitute
    value).  All response state is dead while unarmed: a machine never
    offered {!arm_respond} is bit-identical to one built before these hooks
    existed. *)

val arm_respond :
  t -> on_squash:(addr:int -> len:int -> value:int -> unit) -> unit
(** Enable the response hooks.  [on_squash] receives every squashed store —
    the discarded value and its address/width — so the response layer can
    preserve it in a shadow slab.  Arming captures the pre-write value on
    every subsequent store (an unwatched shadow read, no clock charge). *)

val squash_write : t -> unit
(** Request that the store currently in flight (the one whose trap is being
    handled, or the next store when called from a pre-access check) be
    undone after its access check completes.  No-op unless armed. *)

val override_read : t -> int -> unit
(** Request that the load currently in flight return this value instead of
    the one read from memory.  No-op unless armed. *)

val load_word_unwatched : t -> int -> int
(** Runtime-internal access: no debug-register check, no cost.  Used by the
    tools themselves (e.g. canary verification must not trip the very
    watchpoint guarding the canary). *)

val store_word_unwatched : t -> int -> int -> unit

(** {1 Work and syscall accounting} *)

val work : t -> int -> unit
(** [work t cycles] models application compute: advances the clock.  The
    cycles are attributed to the current profiler phase ({!Profiler.App}
    unless a tool set one via {!in_phase}/{!work_as}).  A negative count
    raises [Invalid_argument] before anything, {!work_cycles} included,
    moves. *)

val stall : t -> int -> unit
(** Advance the clock by [n] cycles {e without} counting them as modeled
    application compute — runtime-internal waiting, such as the backoff
    between [perf_event_open] retries under fault injection.  Attributed to
    the current profiler phase like any other charge. *)

val work_as : t -> Profiler.phase -> int -> unit
(** [work t cycles], attributed to [phase] — unless an enclosing
    {!in_phase} already set one, which wins. *)

val in_phase : t -> Profiler.phase -> (unit -> 'a) -> 'a
(** Attribute every cycle charged inside the callback to [phase].  The
    outermost phase wins: nesting does not re-attribute (the trap handler's
    inner WMU work stays charged to trap dispatch). *)

val charge_syscalls : t -> int -> unit
(** Advance the clock by [n] syscall costs (perf-API wrappers call this). *)

(** {1 Address space} *)

val sbrk : t -> int -> int
(** [sbrk t n] extends the heap break by [n] bytes (16-byte aligned) and
    returns the previous break — the allocator's backing store. *)

(** {1 Signals} *)

val set_trap_handler : t -> (trap_info -> unit) -> unit
(** Install the SIGTRAP handler (paper: [sigaction] with [sa_sigaction]).
    Traps arriving with no handler are counted and dropped. *)

val clear_trap_handler : t -> unit

val trap_count : t -> int
(** Traps delivered so far. *)

val access_count : t -> int
(** Application loads/stores issued through the checked entry points. *)

val syscall_count : t -> int
(** Syscalls charged via {!charge_syscalls}. *)

val work_cycles : t -> int
(** Cycles of modeled application compute ({!work}). *)

(** {1 Perf-event wrappers}

    Same semantics as {!Hw_breakpoint}, but each call also charges its
    syscall cost to the clock.  [install_watch] performs the full Figure 3
    sequence for one thread (open + fcntl×4 + enable = 6 syscalls);
    [remove_watch] performs Figure 4's (disable + close = 2 syscalls). *)

val install_watch :
  ?combined:bool -> t -> addr:int -> tid:Threads.tid ->
  (Hw_breakpoint.fd, [ `ENOSPC | `EBUSY | `EACCES ]) result
(** [combined] models the custom single-syscall installation the paper
    proposes as an OS modification (Section V-B): the same hardware
    operations, charged as one kernel crossing instead of six.  [`EBUSY]
    and [`EACCES] only occur under fault injection ({!create}'s [faults]);
    the failed open still costs one syscall. *)

val remove_watch : ?combined:bool -> t -> Hw_breakpoint.fd -> unit
(** With [combined], one syscall instead of two. *)
