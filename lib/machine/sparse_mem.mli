(** Byte-addressable sparse memory.

    Backs the simulated process address space.  Storage is allocated lazily
    in fixed-size chunks, so a heap spanning gigabytes of virtual addresses
    costs only what is actually touched — the same property [mmap]-backed
    allocators rely on, and what lets Table V count resident (touched)
    memory separately from reserved address space.  The chunks touched
    sit in a dense array, found through an {!Int_index} from chunk number
    to position, behind a one-entry cache of the last chunk touched.  A
    run of words in one chunk, such as the 32-byte CSOD object header
    ({!write_int4}, {!read_ints}), resolves its chunk once. *)

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

val write_int4 : t -> addr -> int -> int -> int -> int -> unit
(** [write_int4 t a w0 w1 w2 w3] stores four consecutive words from [a],
    as four {!write_int}s would, with one chunk resolution and one note of
    the chunk's written extent when the 32 bytes lie in one chunk (word
    by word when they straddle two).  Allocates nothing. *)

val read_ints : t -> addr -> int array -> unit
(** [read_ints t a dst] loads [Array.length dst] consecutive words from
    [a] into [dst], as that many {!read_int}s would, with one chunk
    resolution when they lie in one chunk.  Allocates nothing. *)

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
