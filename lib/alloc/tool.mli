(** The interposition surface shared by all detection tools.

    A tool is what LD_PRELOAD makes of a runtime library: it sees every
    allocation (with a calling-context handle) and every deallocation, may
    pad and offset the pointers it returns, observes instrumented memory
    accesses (for static-instrumentation baselines such as ASan), and gets a
    chance to run at program exit (CSOD's Termination Handling Unit).  The
    MiniC interpreter and the synthetic workload drivers both execute
    against this interface, so CSOD, ASan, and the no-op baseline are
    interchangeable. *)

type access_kind = Read | Write

type t = {
  name : string;
  malloc : size:int -> ctx:Alloc_ctx.t -> int;
      (** Allocate [size] usable bytes; the returned pointer is what the
          application sees (possibly offset past a tool header).  [ctx] is
          valid only during this call: the caller re-points it for its
          next allocation, so a tool copies the pair it needs
          ({!Alloc_ctx.key}) and never keeps the handle.  A tool that
          wants the full chain writes it ([Alloc_ctx.write]) during
          this call into a buffer of its own; the writer charges
          {!Cost.backtrace_full} itself, so a tool charges nothing for
          it. *)
  free : ptr:int -> unit;
      (** Release an application pointer.  May raise {!Heap.Error} on heap
          misuse, or a tool-specific exception on detected corruption. *)
  on_access : addr:int -> len:int -> kind:access_kind -> site:int -> unit;
      (** Invoked for every {e instrumented} application access, before the
          hardware performs it.  [site] is the code address of the access.
          Tools without static instrumentation ignore this (CSOD's detection
          rides on the hardware watchpoints instead). *)
  at_exit : unit -> unit;
      (** End-of-execution hook. *)
  extra_resident_bytes : unit -> int;
      (** Tool-private resident memory (headers already live inside heap
          blocks; this covers side tables such as CSOD's context table or
          ASan's shadow), for Table V accounting. *)
}

val baseline : Heap.t -> t
(** The pass-through tool: raw heap, no checking.  Figure 7's "default
    Linux" configuration. *)
