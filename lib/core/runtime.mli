(** The CSOD runtime — the paper's drop-in library, assembled.

    Wraps a raw heap with the six units of Figure 1: Alloc/Dealloc
    Monitoring (the {!Tool.t} surface), Sampling Management
    ({!Context_table}), Watchpoint Management ({!Watch_table}), Signal
    Handling (the machine trap handler installed here), and — when
    evidence mode is on — Canary Management and Termination Handling
    ({!finish}).

    Allocation flow (Section III-A1): obtain the context entry, decide
    whether to watch (a free watchpoint is always used; otherwise a PRNG
    draw against the context's adaptive probability gates a policy-driven
    replacement), plant header/canary, install the watchpoint on every
    alive thread.  Deallocation removes the object's watchpoint and, in
    evidence mode, verifies the canary — a corrupted canary pins the
    context at 100% and records it for future executions. *)

type t

type stats = {
  contexts : int;         (** distinct allocation calling contexts seen *)
  allocations : int;      (** allocations intercepted *)
  watched_times : int;    (** watchpoint installations (Table IV's WT) *)
  traps : int;            (** watchpoint firings handled *)
  canary_checks : int;
  live_objects : int;
}

val create :
  ?params:Params.t ->
  ?store:Persist.t ->
  ?respond:Respond.t ->
  ?seed:int ->
  machine:Machine.t ->
  heap:Heap.t ->
  unit ->
  t
(** Build the runtime: splits per-runtime PRNGs off the machine generator
    (offset by [seed], default 0, so repeated executions differ), installs
    the SIGTRAP handler, subscribes to thread events, and pre-pins every
    context found in [store] (default: fresh empty store).

    [respond] selects the active-response policy (default none — identical
    behaviour to a build without the layer), built by {!Respond.create}
    on the same machine.  Oblivious mode redirects every detected
    out-of-bounds access into the response layer's shadow slab; the
    watchpoint then {e stays armed} (the object's later accesses need
    redirecting too), with reports still limited to one per object.  Patch
    mode consults the store's evidence counts on every allocation and
    gives convicted contexts' objects guard slack instead of a watchpoint.
    Neither policy draws from any PRNG. *)

val tool : t -> Tool.t
(** The interposition surface to run applications against. *)

val store : t -> Persist.t

val degraded : t -> bool
(** True once the runtime has fallen back to canary-only mode: after
    {!Watch_table.install} failed three times in a row for environmental
    reasons (fault-injected [`EBUSY]/[`EACCES] — e.g. a debugger holding
    the debug registers), no further watchpoints are attempted for this
    execution.  Evidence-mode canaries keep detecting; the transition is
    recorded in the flight recorder as a [Degrade] probability change and
    counted in the ["runtime.degraded"] metric. *)

val detections : t -> Report.t list
(** Reports accumulated this execution, oldest first. *)

val detected : t -> bool
(** Has any overflow been detected (watchpoint or canary)? *)

val finish : t -> unit
(** The Termination Handling Unit: in evidence mode, check the canary of
    every live object, report corruptions, and record every overflowing
    context into the store.  Also uninstalls the trap handler.  Safe to
    call after an erroneous exit (the paper intercepts SIGSEGV/abort to do
    exactly this); idempotent. *)

val stats : t -> stats

val context_table : t -> Context_table.t
(** Exposed for the harness (Table III/IV characteristics). *)

val watch_table : t -> Watch_table.t

val extra_resident_bytes : t -> int
(** Side-table memory: the context table.  CSOD keeps {e no} per-object
    side structures — all object metadata lives in the 32-byte in-block
    header of Figure 5, and the Termination Handling Unit enumerates live
    objects by walking the heap. *)
