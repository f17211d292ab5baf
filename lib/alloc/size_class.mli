(** Segregated size classes for the heap allocator.

    Classes advance in 16-byte steps up to {!max_class} (matching the
    fine-grained small bins of production allocators); requests above
    [max_class] are "large" and rounded to 16-byte granules.  The layout
    matters to the reproduction twice over: object spacing determines
    whether a one-word overflow lands on the adjacent object or on
    padding (CSOD places the watchpoint and evidence canary immediately
    past the {e requested} size, inside that padding), and per-object
    padding waste feeds Table V's memory accounting. *)

val max_class : int
(** 4096 bytes. *)

val align : int
(** Allocation granule, 16 bytes. *)

type t =
  | Small of int  (** 16-byte-stepped block size in [\[16, max_class\]] *)
  | Large of int  (** 16-byte-rounded byte size above [max_class] *)

val max_request : int
(** The largest request whose 16-byte rounding does not overflow. *)

val block_bytes : int -> int
(** [block_bytes size] is the block a request of [size] bytes reserves
    ([0 <= size <= max_request]; a request of 0 is treated as 1, matching
    malloc), without building a {!t}: the class is small exactly when the
    block is at most {!max_class}.  Raises [Invalid_argument] outside
    that range. *)

val classify : int -> t
(** [classify size] for a request of [size] bytes, the class of
    [block_bytes size]. *)

val block_size : t -> int
(** Bytes actually reserved for an object of this class. *)

val small_index : int -> int
(** [small_index block] is the index of the [Small block] class in the
    per-class table. *)

val num_small_classes : int
