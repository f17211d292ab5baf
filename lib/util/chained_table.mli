(** Chained hash table with per-bucket chains, modeling the paper's
    Sampling Management Unit table (Section III-B1).

    The paper keeps one global hash table mapping an allocation calling
    context to its sampling state, sized "to a large number to reduce hash
    conflicts", with a per-chain lock.  This module reproduces that
    structure: a fixed bucket array chosen at creation time, separate
    chaining, and per-bucket lock {e accounting} (the simulation is
    cooperatively scheduled, so locks are counted rather than contended;
    the counts feed the cost model). *)

type ('k, 'v) t

val create : ?buckets:int -> hash:('k -> int) -> equal:('k -> 'k -> bool) -> unit -> ('k, 'v) t
(** [create ~hash ~equal ()] builds a table.  [buckets] defaults to 65536,
    matching the paper's "large number" sizing. *)

val length : (_, _) t -> int
(** Number of bindings. *)

val clear : (_, _) t -> unit
(** Drop every binding and zero the lock count, keeping the bucket array:
    the cleared table is indistinguishable from a fresh one of the same
    bucket count.  Costs nothing when the table is already empty. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Chain lookup. *)

val find_or_add : ('k, 'v) t -> 'k -> default:(unit -> 'v) -> 'v
(** [find_or_add t k ~default] returns the existing binding for [k] or
    inserts [default ()] and returns it.  This is the hot-path operation
    performed on every allocation. *)

val replace : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite. *)

val remove : ('k, 'v) t -> 'k -> unit
(** Remove a binding if present. *)

val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
(** Iterate over all bindings (used by the Termination Handling Unit to walk
    every context at exit). *)

val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
(** Fold over all bindings. *)

val lock_acquisitions : (_, _) t -> int
(** Number of per-bucket lock acquisitions performed so far; consumed by the
    cost model. *)

val max_chain_length : (_, _) t -> int
(** Longest current chain; exercised by tests to confirm the "very few
    conflicts" expectation from the paper. *)

val memory_bytes : (_, _) t -> int
(** Approximate resident size of the table structure itself (bucket array
    plus chain nodes), used for Table V style memory accounting. *)
