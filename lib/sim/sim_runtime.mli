(** Simulation alphabet over the full CSOD detection stack: {!Runtime} on a
    {!Machine} armed with a zero-rate {!Fault_injector} so every fault
    point is a first-class, deterministically forced operation.

    Ops: allocate/free through the interposition surface, in-bounds and
    one-past-the-end accesses (the latter may trap or corrupt a canary),
    policy-external disarm of a live watchpoint, and forced faults
    (EBUSY/EACCES on watchpoint installation, SIGTRAP drop/delay).
    Invariants after every step: never more than four armed hardware
    watchpoints, the watch table and the debug registers agree exactly,
    and the heap's live accounting matches the model. *)

val alphabet : unit -> Sim.packed
(** Registered as ["runtime"]. *)

val threads_alphabet : unit -> Sim.packed
(** Registered as ["runtime-threads"]: the same ops plus [spawn] (up to
    eight alive threads) and [exit-thread] (any alive thread but main).
    Its invariant replaces the single-thread one: every live watchpoint
    holds exactly one descriptor on each alive thread and none on a dead
    one, unless a fired EBUSY or EACCES accounts for the gap (at most one
    gap per fired fault); every descriptor maps back to its watchpoint
    through {!Watch_table.find_by_fd}; the hardware's armed and open
    event counts equal the descriptors'; and the heap and detection
    checks of ["runtime"] hold. *)
