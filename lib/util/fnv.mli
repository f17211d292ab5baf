(** 64-bit FNV-1a, the one hash behind the store footer's checksum,
    history records' [crc], the simulator's replay hash and
    {!Prng.fork}'s label seed.  Each of those is persisted or replayed,
    so the constants must never change. *)

val offset : int64
(** The FNV-1a 64-bit offset basis: the hash of no bytes. *)

val byte : int64 -> int -> int64
(** Fold one byte (the low 8 bits of the int) into a hash. *)

val string : int64 -> string -> int64
(** Fold every byte of the string, in order. *)
