(** Byte-addressable sparse memory.

    Backs the simulated process address space.  Storage is allocated lazily
    in fixed-size chunks, so a heap spanning gigabytes of virtual addresses
    costs only what is actually touched — the same property [mmap]-backed
    allocators rely on, and what lets Table V count resident (touched)
    memory separately from reserved address space.  The chunks touched
    sit in a dense array, found through an {!Int_index} from chunk number
    to position, behind a one-entry cache of the last chunk touched.  A
    CSOD object's header and canary ({!write_frame}, {!read_frame})
    resolve their chunk once. *)

type t

type addr = int
(** Virtual addresses are non-negative integers. *)

val create : unit -> t

val read_u8 : t -> addr -> int
(** [read_u8 t a] reads one byte; untouched memory reads as 0. *)

val write_u8 : t -> addr -> int -> unit
(** [write_u8 t a v] stores the low 8 bits of [v]. *)

val read_u64 : t -> addr -> int64
(** Little-endian 8-byte load. *)

val write_u64 : t -> addr -> int64 -> unit
(** Little-endian 8-byte store. *)

val equal_u64 : t -> addr -> int64 -> bool
(** [equal_u64 t a v] is [read_u64 t a = v] without boxing the load: the
    canary check's comparison. *)

val read_int : t -> addr -> int
(** [read_int t a] loads a 64-bit word as an OCaml [int] (truncating the top
    bit); the MiniC interpreter's word type.  Never boxes: a load from one
    chunk allocates nothing. *)

val write_int : t -> addr -> int -> unit
(** [write_int t a v] stores [v] sign-extended to 64 bits; allocates
    nothing. *)

(** {1 Object frames}

    A frame is four header words at [a], the second of them a byte
    length [n], and a tail word at [frame_tail a n], past the [n]-byte
    body rounded up to a word: the CSOD object layout ([Canary]).  A frame
    within one chunk is written or read with one chunk resolution, one
    range check and unchecked word accesses; one that straddles chunks
    goes word by word.  Neither touches the body, and neither allocates. *)

val frame_tail : addr -> int -> addr
(** [frame_tail a n] is [a + 32] plus [n] rounded up to a multiple of 8:
    the tail word's address. *)

val write_frame : t -> addr -> int -> int -> int -> int -> int64 -> unit
(** [write_frame t a w0 w1 w2 w3 v] stores the header words [w0 .. w3]
    from [a] and [v] at [frame_tail a w1], as four {!write_int}s and a
    {!write_u64} would.  Within one chunk the written extent is noted
    once, as its hull [\[a, tail + 8)], which is where the five notes
    would leave it. *)

val tail_unread : int
(** -1: {!read_frame}'s answer when the header straddles two chunks or
    lies in one never written, or the tail lies outside the header's
    chunk: the tail was not compared. *)

val read_frame : t -> addr -> int array -> int64 -> int
(** [read_frame t a dst v] loads the four header words at [a] into
    [dst.(0 .. 3)], as four {!read_int}s would, and says whether the tail
    word at [frame_tail a dst.(1)] equals [v]: [1] or [0] when it lies in
    the header's written chunk, else {!tail_unread} (compare it with
    {!equal_u64}, which the caller may want to do later or not at all).
    [dst] needs four cells. *)

val exchange_u8 : t -> addr -> int -> int
(** [exchange_u8 t a v] stores the low 8 bits of [v] and returns the byte
    it displaced — a write and the pre-write capture in one chunk lookup,
    for the armed response layer's squash path. *)

val exchange_int : t -> addr -> int -> int
(** Word-sized {!exchange_u8}. *)

val fill : t -> addr -> int -> int -> unit
(** [fill t a len v] sets [len] bytes starting at [a] to byte [v]. *)

val release : t -> unit
(** End-of-life: return this memory's chunk storage to the domain-local
    page pool so the next execution on this domain reuses it instead of
    allocating.  A pooled page is zeroed when it is reused, over the
    range of offsets its writes reached (each chunk keeps that extent
    beside its storage; reads never consult it).  The memory reads as
    all-zeroes afterwards; it stays usable, but storage it takes from
    then on is never pooled.  Idempotent.  Runs the {!on_release} hooks
    first, in registration order. *)

val on_release : t -> (unit -> unit) -> unit
(** [on_release t f] runs [f] once, when [t] is released.  The owners of
    per-execution tables (the heap, the context table, ASan) register here
    so that the single end-of-execution call that returns the machine's
    pages also hands their tables to the next execution on the domain.
    Ignored once [t] is released. *)

val chunk_size : int
(** Chunk granularity in bytes (a simulated page cluster). *)
