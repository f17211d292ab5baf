(** The Watchpoint Management Unit (paper, Section III-C).

    Owns the four hardware watchpoints: installation on every alive thread
    (Figure 3), replacement under one of three policies, and removal on
    deallocation (Figure 4).  An installed watchpoint's claim to its slot
    weakens with age — its effective probability halves every
    [installed_halflife_sec] — so that objects that have sat unwatched-by-
    overflow for a long time yield to fresh candidates.

    At most four watchpoints are live, so the table keeps four reused
    slots in flat arrays: each field is a column, the near-FIFO ring is an
    array of slot numbers, and each thread's descriptors are one row of
    four.  Installing, replacing, removing on [free], and the thread
    spawn/exit hooks write these in place; once the descriptor rows cover
    the threads in use they allocate nothing and hash nothing.  A {!wp}
    is a snapshot of one slot, built only when asked for ({!live},
    {!find_by_fd}). *)

type wp = {
  obj_addr : int;                 (** application pointer of the watched object *)
  watch_addr : int;               (** boundary word the hardware watches *)
  entry : Context_table.entry;    (** allocation context of the object *)
  fds : (Threads.tid * Hw_breakpoint.fd) list;
      (** each alive thread's descriptor, in spawn order *)
  installed_at : float;           (** virtual seconds *)
  prob_at_install : float;
  serial : int;                   (** install number, unique within the table *)
}

type t

val create : params:Params.t -> machine:Machine.t -> rng:Prng.t -> t
(** Also subscribes to thread spawn/exit: new threads receive all installed
    watchpoints; exiting threads have their descriptors closed. *)

val has_free_slot : t -> bool

val in_startup : t -> bool
(** True until four installations have been performed.
    During startup, a free watchpoint is used {e regardless of
    probability} — the paper's "installation due to availability" rule,
    which it motivates by "the first few objects, which are more likely to
    be affected by input parameters".  After startup the probability gate
    applies even when a slot is free: were it bypassed forever, every
    deallocation of a watched object would hand the slot to the very next
    allocation, installs would track the allocation rate (contradicting
    Table IV's small watched-times counts), and the burst throttle of
    Section III-B2 could never reduce installation overhead. *)

val install : t -> obj_addr:int -> watch_addr:int -> entry:Context_table.entry -> bool
(** Install on a free slot for every alive thread (6 syscalls each), in
    spawn order, so the threads' fds count up in that order.
    Raises [Failure] if no slot is free — callers must check or replace.
    Returns whether the watchpoint was actually armed: under fault
    injection [perf_event_open] can fail with [`EBUSY] (retried up to three
    times with a virtual-time backoff) or [`EACCES] (permanent), and when
    {e every} alive thread's open fails that way, no slot is claimed and
    the result is [false] — the caller's cue to degrade.  Without an
    injector the result is always [true]. *)

val try_replace :
  t -> obj_addr:int -> watch_addr:int -> entry:Context_table.entry ->
  new_prob:float -> bool
(** Attempt a policy-directed preemption: the victim must have a lower
    {e decayed} probability than [new_prob].  Returns whether the new
    object is now watched.  Under the naive policy this is always
    [false]. *)

val decayed_prob : t -> wp -> float
(** [prob_at_install] halved once per {e fully elapsed}
    [installed_halflife_sec] — a step function, so a young watchpoint keeps
    its full installation probability. *)

val on_free : t -> obj_addr:int -> bool
(** Remove the watchpoint guarding a freed object, if any (the newest,
    should two guard one address); returns whether one was removed.
    Scans the ring's four slots and allocates nothing, whether or not it
    finds one. *)

val find_by_fd : t -> Hw_breakpoint.fd -> wp option
(** Signal-handler lookup: which watchpoint fired?  Matches the paper's
    one-by-one comparison of saved descriptors: it scans each live slot's
    descriptor column, and hashes nothing. *)

val remove : t -> wp -> unit
(** Full removal (disable + close on every thread) of the watchpoint
    [wp] snapshots, found by its {!wp.serial}; a snapshot of a watchpoint
    already removed is ignored. *)

val installs : t -> int
(** Total installations performed — the "WT" (watched times) column of
    Table IV. *)

val live : t -> wp list
(** Currently installed watchpoints, oldest first. *)
