(** A hash table over [int] keys that hashes a key to itself.

    For tables on a per-access or per-allocation path: a probe is a mask
    and an integer compare, with no call into the runtime's generic
    hash.  Keys should differ in their low bits (descriptors, chunk
    numbers, block sizes in granules); keys that differ only in their
    high bits share a bucket. *)

include Hashtbl.S with type key = int
