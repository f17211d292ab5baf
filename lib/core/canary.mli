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
    overflow from below that corrupts it is seen as such; it is written
    as one 32-byte span at [malloc] and read back as one at [free] and at
    exit, while the canary stays a single word access. *)

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

val plant : Machine.t -> base:int -> size:int -> ctx_id:int -> canary:int64 -> int
(** Write header and canary (evidence mode); returns the application
    pointer.  The header's four words are one {!Sparse_mem.write_int4}.
    Charges {!Cost.canary_plant}. *)

val check : Machine.t -> app:int -> size:int -> expected:int64 -> bool
(** Is the canary intact?  Charges {!Cost.canary_check} and counts the
    check in the machine's [canary.checks] counter. *)

val checks : Machine.t -> int
(** Canary checks made on this machine so far: [canary.checks], read
    without defining it, so a machine that never checks does not list it
    at zero. *)

type header
(** A scratch buffer for one object header's four words, owned by its
    reader (the runtime keeps one). *)

val header : unit -> header

val read_header : Machine.t -> app:int -> header -> bool
(** Read the 32-byte header in front of [app] into the buffer, with one
    chunk resolution (word by word when it straddles a chunk), and say
    whether it carries the CSOD identifier: [false] for a foreign or
    corrupted header, or one that would start below address 0.  Allocates
    nothing. *)

val real_base : header -> int
val object_size : header -> int
val context_id : header -> int
(** The fields {!read_header} read; meaningful only when it said [true]. *)
