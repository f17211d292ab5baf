(** Hardware debug registers and the perf-event installation API.

    x86 exposes six debug registers of which four (DR0–DR3) can watch linear
    addresses (paper, Section II-A).  The paper installs them from user space
    through [perf_event_open], one event per (address, thread), configured
    with [fcntl] to deliver an asynchronous SIGTRAP to the accessing thread,
    and enabled/disabled with [ioctl].

    This module reproduces both layers: the four-slot hardware constraint
    (at most four {e distinct} watched addresses machine-wide), and the
    file-descriptor-based perf API with its per-call syscall costs.  Each
    API entry point mirrors one syscall from the paper's Figures 3 and 4, so
    installing a watchpoint for a thread costs six syscalls and removing it
    costs two — the "eight system calls ... for each thread" the paper
    reports when explaining its overhead.

    The state is flat and sized by what is open at once: an {!Int_index}
    from each open event's fd to its thread, slot and enabled bit, the
    four slots, and one row of four lowest-armed fds per thread.  fds keep counting up for the machine's
    lifetime, but the table grows only with the events open together, so
    a long run that opens and closes hundreds of thousands of events keeps
    a table of a few dozen cells.  Once the table and the rows cover the
    events and threads in use, no call here allocates. *)

type fd = int

type access_kind = Read | Write

type t

val watch_len : int
(** Bytes covered by one watchpoint (8, an x86 DR length). *)

val num_slots : int
(** Number of usable debug registers (4). *)

val create : ?faults:Fault_injector.t -> unit -> t
(** [faults] makes [perf_event_open] subject to injected [`EBUSY] /
    [`EACCES] failures (see {!Fault_plan}); without it only the
    architectural [`ENOSPC] can occur. *)

(** {1 The perf-event syscall surface}

    Every call below advances the syscall counter; the machine layer maps
    that counter onto the virtual clock. *)

val perf_event_open :
  ?now:float -> t -> addr:int -> tid:Threads.tid ->
  (fd, [ `ENOSPC | `EBUSY | `EACCES ]) result
(** Create a breakpoint event watching [watch_len] bytes at [addr] for
    thread [tid].  Fails with [`ENOSPC] when the event would require a fifth
    distinct watched address — the hardware limit.  Under fault injection it
    can also fail with [`EBUSY] (another debugger holds the debug registers
    — transient, worth retrying) or [`EACCES] (permissions — persistent);
    [now] is the virtual time the injector's one-shots are judged against.
    The event starts disabled, as in the paper's Figure 3 flow. *)

val open_event : ?now:float -> t -> addr:int -> tid:Threads.tid -> int
(** {!perf_event_open} with the result as the kernel returns it: the fd,
    or a negative error code ({!enospc}, {!ebusy} or {!eacces}).  It
    builds no result block, so the watchpoint installer's per-thread
    opens allocate nothing. *)

val open_armed : ?now:float -> t -> addr:int -> tid:Threads.tid -> int
(** {!open_event}, then on success {!fcntl_setup} and {!ioctl_enable} of
    the new fd: Figure 3's six syscalls for one thread, counted as six,
    with the same fault-injection point (the open), binding the event
    enabled in one table probe. *)

val enospc : int
val ebusy : int
val eacces : int
(** The negated errno values {!open_event} returns. *)

val open_result : int -> (fd, [ `ENOSPC | `EBUSY | `EACCES ]) result
(** An {!open_event} return value as {!perf_event_open}'s result. *)

val fcntl_setup : t -> fd -> unit
(** Stand-in for the three [fcntl] calls ([O_ASYNC], [F_SETSIG SIGTRAP],
    [F_SETOWN tid]) plus the initial [F_GETFL]; counted as four syscalls. *)

val ioctl_enable : t -> fd -> unit
(** [PERF_EVENT_IOC_ENABLE]. Raises [Invalid_argument] on a closed fd. *)

val ioctl_disable : t -> fd -> unit
(** [PERF_EVENT_IOC_DISABLE]. *)

val close : t -> fd -> unit
(** Release the event; the debug-register slot is freed once every event
    watching its address is closed. *)

val disable_close : t -> fd -> unit
(** {!ioctl_disable} then {!close}: Figure 4's two syscalls, counted as
    two, in one table probe.  Raises [Invalid_argument] on a closed fd,
    having counted one syscall, as the disable does. *)

(** {1 Hardware side} *)

val check_access :
  t -> addr:int -> len:int -> kind:access_kind -> tid:Threads.tid -> fd option
(** [check_access t ~addr ~len ~kind ~tid] is the debug-unit comparator: if
    the accessed range overlaps a watched address whose event for [tid] is
    enabled, return that event's fd (the trap to deliver), the lowest such
    fd when several match.  It compares against the four slots and looks
    up [tid]'s armed events of the overlapping ones directly, so its cost
    does not depend on how many threads or events exist; with nothing
    armed it is one test.  It allocates only the [Some] of a hit. *)

val armed_count : t -> int
(** Events currently enabled, over all slots and threads. *)

val watched_addrs : t -> int list
(** Currently armed distinct addresses (at most [num_slots]). *)

val syscall_count : t -> int
(** Total syscalls issued through this module. *)

val live_fd_count : t -> int
(** Open event descriptors, for leak tests. *)
