(** ASan-style shadow memory.

    Address sanitizers map every 8 application bytes to one shadow byte
    recording which of those bytes are addressable.  This model keeps the
    same 1:8 granularity and poisoning semantics (byte-exact, via a per-
    granule bitmask) so that the redzone arithmetic — which overflow
    offsets are caught and which sail past — matches real ASan. *)

type t

val create : unit -> t

val release : t -> unit
(** Return the shadow's pages to the domain-local page pool, as
    {!Sparse_mem.release} does for the machine's memory.  The shadow reads
    as all-addressable afterwards.  Idempotent. *)

val poison : t -> addr:int -> len:int -> unit
(** Mark the byte range fully unaddressable (redzone/freed).  [addr] and
    [len] need not be 8-aligned; partial granules become partially
    addressable accordingly. *)

val unpoison : t -> addr:int -> len:int -> unit
(** Mark the range addressable.  Unpoisoning a 13-byte object leaves bytes
    13–15 of its final granule in whatever state they already had — the
    caller poisons the right redzone explicitly, as ASan's allocator
    does. *)

val is_poisoned : t -> addr:int -> len:int -> bool
(** Would an access of [len] bytes at [addr] touch unaddressable memory? *)
