(** Ground-truth overflow oracle.

    A harness-only tool that tracks the exact bounds of every live object
    and inspects {e every} access (it instruments everything, unlike ASan,
    and needs no watchpoints, unlike CSOD).  It never misses a contiguous
    overflow, so one oracle run per application yields Table III's ground
    truth: the total context/allocation census, the census {e at the moment
    the overflowed object was allocated}, and the overflow class.

    Like the detection tools, the oracle pads each allocation so its
    tripwire zone lies inside the object's own block — a neighbouring
    object can then neither clobber the zone nor touch it legitimately.

    The oracle is an experimental instrument, not part of the reproduced
    system — the paper's authors extracted the same numbers with separate
    profiling runs. *)

type overflow = {
  kind : Tool.access_kind;
  object_addr : int;
  object_size : int;
  alloc_index : int;      (** 1-based index of the object's allocation *)
  contexts_before : int;  (** distinct contexts when it was allocated (inclusive) *)
  allocs_before : int;    (** allocations when it was allocated (inclusive) *)
  access_site : int;
  alloc_ctx_key : Alloc_ctx.key;
}

type t

val create : Machine.t -> Heap.t -> t
val tool : t -> Tool.t

val first_overflow : t -> overflow option
val total_contexts : t -> int
val total_allocations : t -> int

val ambiguous_keys : t -> int
(** (call site, stack offset) keys that reached more than one distinct
    full chain.  The oracle writes every allocation's chain through its
    handle into a scratch buffer of its own, so this census costs the
    oracle run a backtrace per allocation and the detection runs
    nothing. *)

val ambiguous_allocations : t -> int
(** Allocations made under the keys {!ambiguous_keys} counts. *)

val observe :
  ?seed:int -> ?engine:Engine.t -> app:Buggy_app.t ->
  input:Execution.input_choice -> unit -> (t, string) result
(** Run the app once under the oracle and return it for inspection;
    [Error] carries a crash message if the program faulted.  [seed]
    (default 1) seeds both the machine and the program-visible [rand], so
    an oracle run can be paired with a detection run of the same seed for
    allocation-index correlation.  [engine] defaults to {!Engine.Interp}
    — unlike {!Execution.run}, whose default is the VM — so ground truth
    always rides the reference semantics unless a caller explicitly opts
    into the VM (the engine A/B tests do). *)
