(** A map from a pair of ints to a non-negative int, by open addressing.

    The one index behind the per-allocation and per-access tables: the
    heap's large free-block stacks and its pages past the dense window,
    the context table's (call site, stack offset) lookup, the evidence
    store, the debug registers' open events and sparse memory's chunks.
    A key is a pair [(a, b)]; a table keyed by one int passes [b = 0].

    Keys and values sit in one flat [int] array, three ints per cell, so
    no operation calls the generic hash, and none allocates except the
    doubling that [add] and [replace] do before a key would make the
    table more than half full.  The home cell is the top bits of a
    multilinear hash of the pair (Fibonacci hashing when [b = 0]) and
    collisions probe linearly; {!remove} moves the rest of its cluster
    back instead of leaving a tombstone.  The table never shrinks. *)

type t

val create : int -> t
(** [create n] is an empty table of the fewest cells (a power of two, at
    least 2) that hold [n] keys without growing. *)

val length : t -> int
(** Keys bound. *)

val find : t -> int -> int -> int
(** [find t a b] is the value bound to [(a, b)], or -1. *)

val add : t -> int -> int -> int -> unit
(** [add t a b v] binds the absent key [(a, b)] to [v].  Raises
    [Invalid_argument] when the key is bound or [v] is negative. *)

val replace : t -> int -> int -> int -> unit
(** [replace t a b v] binds [(a, b)] to [v], bound or not.  Raises
    [Invalid_argument] when [v] is negative. *)

val locate : t -> int -> int -> int
(** [locate t a b] is the cell bound to [(a, b)], or -1 when the key is
    absent: with {!cell_value} and {!set_cell_value}, a read and an update
    of one key in one probe. *)

val remove : t -> int -> int -> int
(** [remove t a b] unbinds [(a, b)] and returns the value it had, or -1
    when it was absent. *)

val clear : t -> unit
(** Unbind every key, keeping the cells.  Visits every cell unless the
    table is empty; a caller that knows its keys and holds few of them in
    a grown table should {!remove} them instead. *)

val copy : t -> t
(** An independent table with the same bindings. *)

(** {1 Scanning the cells}

    [cell_value t i] for [i] in [\[0, cells t)] is a bound value, or -1
    for an empty cell; a bound cell's key is [(cell_a t i, cell_b t i)].
    Cells are in no useful order, and a scan allocates nothing.  The table
    must not change during a scan. *)

val cells : t -> int
val cell_a : t -> int -> int
val cell_b : t -> int -> int
val cell_value : t -> int -> int

val set_cell_value : t -> int -> int -> unit
(** [set_cell_value t i v] rebinds the key of the bound cell [i] to [v]
    in place: no probe, and no change to which cells are bound, so it may
    run during a scan.  Raises [Invalid_argument] when the cell is empty
    or [v] is negative. *)
