(** Object layout for CSOD allocations (paper, Figures 2 and 5).

    Every CSOD allocation pads the raw heap block so that the word
    immediately past the object belongs to the object itself — that word is
    the watchpoint target (Figure 2), and under the evidence-based mode it
    additionally holds a random canary verified at deallocation and at exit
    (Figure 5).  With evidence enabled a 32-byte header precedes the
    object:

    {v RealObjectPtr | ObjectSize | CallingContextPtr | Identifier | Object | Canary v}

    The header lets [free] recover the raw block pointer (supporting
    memalign), the object size (locating the canary), and the allocation
    context; the identifier marks CSOD-managed objects.  All header/canary
    traffic uses unwatched accesses: the runtime must never trip the very
    watchpoint it planted.  The header stays in simulated memory, so an
    overflow from below that corrupts it is seen as such.  The header and
    the canary are written as one frame at [malloc], and read back, the
    canary compared, as one at [free] and at exit. *)

val header_size : int
(** 32 bytes. *)

val rounded : int -> int
(** Requested size rounded up to the 8-byte word the hardware watches. *)

val padded_request : evidence:bool -> int -> int
(** Bytes to request from the raw heap for a [size]-byte application
    object: [rounded size + canary word], plus the header when [evidence]. *)

val app_ptr : evidence:bool -> base:int -> int
(** Application pointer within the raw block. *)

val base_ptr : evidence:bool -> app:int -> int

val boundary_addr : app:int -> size:int -> int
(** Address of the first word past the object — the watchpoint target, and
    the canary slot. *)

type t
(** One runtime's canary state: the machine, this run's random canary
    value, the buffer of the last header read, and the [canary.plants]
    and [canary.checks] counters, each resolved in the machine's registry
    at its first use (so an execution that never plants does not list
    them at zero) and held from then on. *)

val create : Machine.t -> int64 -> t
(** [create m canary] plants and checks [canary] on [m]. *)

val plant : t -> base:int -> size:int -> ctx_id:int -> int
(** Write header and canary (evidence mode) as one
    {!Sparse_mem.write_frame}; returns the application pointer.  Charges
    {!Cost.canary_plant} and counts [canary.plants]. *)

val read_header : t -> app:int -> bool
(** Read the 32-byte header in front of [app] into the buffer and compare
    the canary its size locates, with one chunk resolution
    ({!Sparse_mem.read_frame}; word by word when the frame straddles a
    chunk, whose canary {!check} then compares), and say whether
    the header carries the CSOD identifier: [false] for a foreign or
    corrupted header, or one that would start below address 0.  Counts
    nothing, charges nothing, allocates nothing. *)

val real_base : t -> int
val object_size : t -> int
val context_id : t -> int
(** The fields {!read_header} read; meaningful only when it said [true]. *)

val check : t -> bool
(** The counted check of the object {!read_header} last read: is its
    canary intact?  Counts [canary.checks], charges {!Cost.canary_check}
    and records a [canary_check] event.  Call it only after a
    {!read_header} that said [true]. *)

val checks : Machine.t -> int
(** Canary checks made on this machine so far: [canary.checks], read
    without defining it, so a machine that never checks does not list it
    at zero. *)
