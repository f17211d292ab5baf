(** The Sampling Management Unit (paper, Section III-B).

    One global hash table maps each allocation calling context — keyed by
    the cheap (first-level call site, stack offset) pair — to its sampling
    state.  The probability of every context is adapted online:

    - start at 50%;
    - subtract 0.001% on every allocation from the context;
    - halve after each time an object of the context is watched;
    - never drop below the 0.001% floor;
    - throttle to 0.0001% while the context allocates in bursts
      (>5,000 allocations within 10 s), recovering to the floor when the
      window elapses;
    - occasionally revive floor-bound contexts to 0.01% (Section IV-A);
    - pin to 100% when the evidence mechanism proves the context overflows
      (Section IV-B). *)

(** A context's floating-point sampling state, kept apart from {!entry}
    so OCaml stores it unboxed: the per-allocation updates write in place
    instead of boxing a float each. *)
type sampling = {
  mutable prob : float;
  mutable window_start : float;  (** burst window start, virtual seconds *)
  mutable burst_until : float;   (** end of an active throttle, or 0. *)
  mutable floor_since : float;   (** when the probability first hit the floor *)
}

type entry = {
  id : int;
      (** dense per-runtime identifier; stored in object headers as the
          CallingContextPtr of Figure 5 *)
  key : Alloc_ctx.key;
  s : sampling;
  mutable allocs : int;          (** allocations seen from this context *)
  mutable watches : int;         (** times an object of this context was watched *)
  mutable window_count : int;    (** allocations inside the current window *)
  mutable pinned : bool;         (** evidence-pinned at 100% *)
  bt_off : int;
  bt_len : int;
      (** where the full backtrace, captured on first sight, sits in the
          table's buffer; read it with {!full_ctx} *)
}

val prob : entry -> float
(** The entry's adapted probability ([e.s.prob]). *)

type t

val create : params:Params.t -> machine:Machine.t -> rng:Prng.t -> t
(** [rng] drives the reviving coin flips.  Entries sit in a dense array
    indexed by id, found by one {!Int_index} from (call site, stack
    offset) to the id; both start at a few dozen slots and double as
    needed.
    These arrays and the buffer of full backtraces come from a
    domain-local spare when one is there, and go back to it, emptied, at
    their grown size when the machine's memory is released
    ({!Sparse_mem.release}).  The released table forgets its contexts but
    stays usable: it points at a shared empty store and builds arrays of
    its own only if it sees a context again. *)

val on_allocation : t -> Alloc_ctx.t -> entry
(** The per-allocation hot path: look up (or create) the context entry,
    count the allocation, apply degradation, burst bookkeeping, and the
    reviving rule.  A lookup that finds its entry allocates nothing.  A
    first sight has the handle write its full chain once, straight into
    the table's buffer ([Alloc_ctx.write]), and allocates the
    entry and no list.  Charges {!Cost.context_lookup} and
    {!Cost.prob_update} to the machine clock; an engine's writer charges
    {!Cost.backtrace_full} on first sight.  Reads the handle only during
    the call. *)

val effective_prob : t -> entry -> float
(** The probability a sampling decision should use {e now}: 1.0 when
    pinned, the burst throttle while bursting, otherwise the entry's
    adapted probability. *)

val note_watched : t -> entry -> unit
(** Apply the after-watch degradation (halving) and bump the watch count. *)

val pin : t -> entry -> unit
(** Evidence boost to 100% "such that all following overflows sharing the
    same allocation calling context can be detected from then on". *)

val full_ctx : t -> entry -> int list
(** The entry's full allocation context, innermost first, as captured on
    first sight.  Built on each call, for reports; valid until the
    machine's memory is released, when the buffer goes to the next
    table. *)

val find : t -> Alloc_ctx.key -> entry option

val find_by_id : t -> int -> entry option
(** Resolve a header's CallingContextPtr back to its entry: [None] for any
    id outside [\[0, num_contexts t)], such as one read from a corrupted
    header. *)

val num_contexts : t -> int
val total_allocations : t -> int
val iter : (entry -> unit) -> t -> unit
(** Every entry, in id order. *)

val memory_bytes : t -> int
(** Resident cost of the table, for Table V accounting: the paper's table
    "sized to a large number" up front, charged as model constants — 2,048
    buckets of 8 bytes, a 4-word node and 10 words per entry, and 8 bytes
    per frame of each full context.  It does not measure the simulator's
    own index. *)
