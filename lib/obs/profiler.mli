(** Cycle-attribution profiler.

    Charges virtual-clock cycles to a small fixed set of named phases so
    the Figure 7 overhead decomposition (which mechanism costs what) is
    directly inspectable per execution, not just in aggregate.  The
    accumulators are a flat int array indexed by phase — an O(1) add per
    charge, no allocation, no hashing — and every cycle the machine
    advances is attributed to exactly one phase, so
    [total t = Clock.cycles] holds by construction. *)

type phase =
  | App            (** modeled application compute (the default phase) *)
  | Init           (** one-time tool start-up cost *)
  | Alloc_fast     (** allocator fast path (malloc/free bookkeeping) *)
  | Smu_lookup     (** context-table lookup + probability update *)
  | Smu_decision   (** sampling coin flip *)
  | Wmu_install    (** watchpoint installation syscalls *)
  | Wmu_evict      (** watchpoint removal syscalls *)
  | Wmu_replace    (** policy preemption (evict + reinstall) *)
  | Trap_dispatch  (** SIGTRAP delivery and the handler's work *)
  | Canary_plant
  | Canary_check
  | Asan_shadow    (** per-access shadow-memory check *)
  | Asan_poison    (** redzone poisoning and quarantine bookkeeping *)

val all : phase list

val index : phase -> int
(** Position in {!all}, from 0: a dense code for the phase, e.g. to
    store it in an int column. *)

val name : phase -> string
(** Stable dotted identifier, e.g. ["wmu.install"] — the key used in JSON
    exports. *)

type t

val create : unit -> t

val charge : t -> phase -> int -> unit
(** Attribute [n] cycles to [phase].  Negative charges are rejected. *)

val cycles : t -> phase -> int
val total : t -> int
val tool_total : t -> int
(** [total] minus the [App] phase: the runtime's own overhead. *)

val to_list : t -> (phase * int) list
(** In declaration order, zero phases included. *)

val nonzero : t -> (phase * int) list

val reset : t -> unit

val merge_into : dst:t -> src:t -> unit
(** Cell-wise sum: aggregating many executions keeps the invariant that
    the merged total equals the sum of the merged clocks.  [src] is
    untouched. *)

val to_json : t -> Obs_json.t
