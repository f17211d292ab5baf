(** Allocation calling-context handles.

    The paper identifies an allocation's calling context cheaply by the pair
    {e (first-level call site above the runtime, stack offset)}
    (Section III-A1), obtaining the full call chain with the expensive
    [backtrace] walk only the first time a pair is seen.  A handle carries
    exactly those three capabilities: the two cheap key components, and a
    thunk for the full walk.  The interpreter (or a synthetic workload
    driver) constructs handles; detection tools consume them. *)

type t = {
  callsite : int;
      (** Code address of the statement invoking the allocation — what
          [__builtin_return_address] would yield one level above the
          runtime. *)
  stack_offset : int;
      (** Simulated stack-pointer offset at the allocation.  Two textually
          identical call sites reached through different call chains differ
          here (different frames are live), which is why the paper's pair is
          almost always unique per context. *)
  backtrace : unit -> int list;
      (** Full calling context, innermost first.  Expensive; tools call it
          once per new context, and only inside the [malloc] that received
          the handle: the VM's thunk walks the frames live at the call. *)
}

type key = int * int
(** The cheap identifying pair. *)

val key : t -> key

val synthetic : ?stack_offset:int -> callsite:int -> unit -> t
(** Handle for synthetic workloads: the backtrace is just the call site.
    [stack_offset] defaults to 0. *)
