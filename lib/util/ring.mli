(** Fixed-capacity circular buffer.

    The paper's near-FIFO watchpoint replacement policy (Section III-C2)
    tracks the four watchpoints in "a circular buffer ... and a pointer ...
    to the first-installed watchpoint", updating the pointer atomically
    rather than re-sorting under a lock.  This module is that structure,
    generalized to any capacity so that tests can model-check it. *)

type 'a t

val create : capacity:int -> 'a t
(** [create ~capacity] makes an empty ring holding at most [capacity]
    elements.  Raises [Invalid_argument] if [capacity <= 0]. *)

val length : _ t -> int
val is_empty : _ t -> bool
val is_full : _ t -> bool

val push : 'a t -> 'a -> unit
(** [push t x] appends [x] at the tail.  Raises [Failure] if full. *)

val push_overwriting : 'a t -> 'a -> 'a option
(** [push_overwriting t x] appends [x] at the tail; when the ring is full
    the oldest element is overwritten (and returned) instead of failing.
    This is the flight-recorder discipline: the buffer is bounded and the
    most recent history always wins.  O(1), no allocation beyond [Some]. *)

val pop : 'a t -> 'a option
(** [pop t] removes and returns the head (oldest element). *)

val peek : 'a t -> 'a option
(** [peek t] returns the oldest element without removing it. *)

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th element, oldest first ([get t 0] is the
    head).  Allocates nothing.  Raises [Invalid_argument] unless
    [0 <= i < length t]. *)

val advance : 'a t -> unit
(** [advance t] rotates the head pointer past the oldest element, re-inserting
    it at the tail.  This is the near-FIFO "update the pointer to the next
    position" operation used when the oldest watchpoint is {e not} replaced. *)

val remove_at : 'a t -> int -> unit
(** [remove_at t i] removes the [i]-th element, oldest first, preserving
    the relative order of the others.  Allocates nothing.  Raises
    [Invalid_argument] unless [0 <= i < length t]. *)

val remove_where : 'a t -> ('a -> bool) -> 'a option
(** [remove_where t p] removes the first (oldest-first) element satisfying
    [p], preserving the relative order of the others; used when a watched
    object is deallocated out of FIFO order. *)

val to_list : 'a t -> 'a list
(** Oldest-first snapshot. *)

val iter : ('a -> unit) -> 'a t -> unit
