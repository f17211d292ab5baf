(** The heap allocator substrate.

    A segregated-free-list allocator over the simulated machine's address
    space, standing in for the glibc allocator the paper interposes on.
    Detection tools do not subclass it; they {e wrap} it, exactly as an
    LD_PRELOAD interposer wraps [malloc]/[free] — requesting padded sizes
    and offsetting the returned pointer (CSOD's 32-byte header + 8-byte
    canary, ASan's redzones).

    Adjacent blocks within a size class are contiguous, so a continuous
    one-word overflow from a block whose requested size equals its block
    size lands on its neighbour; smaller requests overflow into the block's
    own padding first.  Both situations occur in the paper's nine bugs. *)

type t

exception Error of string
(** Raised on heap misuse: double free or free of a non-heap pointer.
    The message identifies the pointer. *)

val create : Machine.t -> t
(** An empty heap drawing address space from the machine via [sbrk].
    At most one heap per machine: its tallies ({!total_allocs} to
    {!peak_live_bytes}) are the [heap.*] instruments of the machine's
    metrics registry, which a second heap would share.  Its
    objects and free blocks live in flat arrays.  An object is found from
    its address through a granule page map (a table of slots per 16 KiB
    page of the break that holds an object start: two loads, no hash, in
    the break's first 256 MiB),
    and a block size's stack of freed blocks through an {!Int_index}, so
    [malloc] and [free] allocate nothing on the OCaml heap once the
    arrays have grown.  The map relies on the break being carved by this
    heap alone, from {!Machine.heap_base} in 16-byte steps.
    The arrays start at a few dozen slots and double as needed; they come
    from a domain-local spare when one is there, and go back to it at
    their grown size when the machine's memory is released
    ({!Sparse_mem.release}): a warm execution builds none, and emptying
    them touches only the objects still live and the size classes the
    execution used.  The released
    heap forgets its live objects and free blocks but stays usable: it
    points at a shared empty store and builds arrays of its own only if
    it allocates again. *)

val machine : t -> Machine.t

(** {1 Allocation entry points} *)

val malloc : t -> int -> int
(** [malloc t size] reserves at least [size] bytes, 16-byte aligned.  Every
    call advances the clock by {!Cost.malloc_base}.  Raises {!Error} on a
    negative size, and on one whose rounding or break advance would pass
    [max_int]. *)

val free : t -> int -> unit
(** Return a block.  Raises {!Error} on double free or unknown pointers. *)

(** {1 Introspection} *)

val size_of : t -> int -> int option
(** Requested size of a live object, by its exact base address. *)

val is_live : t -> int -> bool

val usable_size : t -> int -> int option
(** Full block size backing a live object (the malloc_usable_size analogue);
    the headroom between requested and usable size is where tools place
    canaries. *)

val iter_live : (addr:int -> size:int -> unit) -> t -> unit
(** Walk every live object (address and requested size).  CSOD's
    Termination Handling Unit uses this to verify the canary of every
    still-allocated object at exit, so the order is the order of its
    exit-time reports.  It is allocation order, except that {!free} moves
    the most recently placed live object into the freed one's place: with
    [a b c d] live, freeing [b] walks [a d c].  The order is a pure
    function of the sequence of allocation calls.  [f] must not allocate
    or free on this heap. *)

val live_objects : t -> int
val live_bytes : t -> int
(** Sum of requested sizes of live objects. *)

val peak_live_bytes : t -> int
val total_allocs : t -> int
val total_frees : t -> int

val resident_bytes : t -> int
(** Peak bytes of blocks simultaneously backing live objects, plus
    allocator metadata — the substrate's contribution to Table V's
    resident-memory accounting (free-list slack is reusable address
    space, not resident pages). *)
