(** Allocation calling-context handles.

    The paper identifies an allocation's calling context cheaply by the pair
    {e (first-level call site above the runtime, stack offset)}
    (Section III-A1), obtaining the full call chain with the expensive
    [backtrace] walk only the first time a pair is seen.  A handle carries
    exactly those capabilities: the two cheap key components, and a writer
    that emits the full chain.  The interpreter (or a synthetic workload
    driver) provides handles; detection tools consume them.

    {b Lifetime.}  A handle is valid only inside the [malloc] that
    receives it.  Each engine owns one handle per run and re-points it
    ({!point}) before every [malloc] and [calloc]; the synthetic drivers
    do the same.  A tool that needs the pair later copies it ({!key});
    none keeps the handle. *)

(** {1 Chains} *)

type chain = { mutable pcs : int array; mutable len : int }
(** A growable buffer of code addresses: chains are appended one after
    another at [pcs.(len)], and the first [len] entries are written. *)

val chain : int -> chain
(** An empty chain buffer with room for [n] addresses before it grows. *)

val push : chain -> int -> unit
(** Append one address, doubling the buffer when full. *)

val push_n : chain -> int -> int -> unit
(** [push_n c pc n] appends [n] copies of [pc]. *)

val to_list : chain -> off:int -> len:int -> int list
(** The [len] addresses from [off], in buffer order: for reports. *)

(** {1 Handles} *)

type t = {
  mutable callsite : int;
      (** Code address of the statement invoking the allocation — what
          [__builtin_return_address] would yield one level above the
          runtime. *)
  mutable stack_offset : int;
      (** Simulated stack-pointer offset at the allocation.  Two textually
          identical call sites reached through different call chains differ
          here (different frames are live), which is why the paper's pair is
          almost always unique per context. *)
  write : chain -> unit;
      (** Append the full calling context, innermost first, to the chain
          buffer.  Expensive: tools call it once per new context, and only
          inside the [malloc] that received the handle, since an engine's
          writer walks the frames live at the call.  The writer charges
          its own cost: an engine's writer charges {!Cost.backtrace_full}
          to the machine clock on each call, a synthetic handle's
          one-address chain is free. *)
}

type key = int * int
(** The cheap identifying pair. *)

val key : t -> key

val point : t -> callsite:int -> stack_offset:int -> unit
(** Re-point a handle at the next allocation's pair. *)

val synthetic : ?stack_offset:int -> callsite:int -> unit -> t
(** Handle for synthetic workloads: the chain is just the call site, read
    when written, so a re-pointed synthetic handle writes its new one.
    [stack_offset] defaults to 0. *)
