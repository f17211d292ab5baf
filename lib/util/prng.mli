(** Deterministic pseudo-random number generation.

    The paper ports OpenBSD's {e arc4random} into the allocator runtime but
    converts it to a {e per-thread} generator so that the hot allocation path
    never takes the global lock that both OpenBSD's generator and glibc's
    [rand] require (paper, Section III-A1).  This module is the OCaml
    equivalent: a small, fast, splittable generator ([xoshiro256**]) intended
    to be instantiated once per simulated thread. *)

type t
(** Mutable generator state, held unboxed: a draw allocates nothing beyond
    the boxed result of {!bits64} or {!float}. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed.  Two generators
    created from the same seed produce identical streams. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t].  Used to give
    each simulated thread its own stream, mirroring the paper's per-thread
    generators. *)

val fork : t -> string -> t
(** [fork t label] derives a substream keyed on [label], advancing [t] by
    exactly one draw.  Forks with distinct labels from the same parent
    state are independent; the same (parent state, label) pair always
    yields the same stream — the named-substream idiom the simulation
    harness uses to keep its generation stream separate from the system
    under test's. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val bits64 : t -> int64
(** [bits64 t] returns 64 uniformly distributed bits. *)

val advance : t -> int -> unit
(** [advance t n] leaves [t] in the state [n] calls to {!bits64} would,
    without computing their results. *)

val int : t -> int -> int
(** [int t bound] returns a uniform integer in [\[0, bound)].  [bound] must be
    positive.  Uses rejection sampling, so the result is unbiased. *)

val float : t -> float
(** [float t] returns a uniform float in [\[0, 1)]. *)

val bits53 : t -> int
(** [bits53 t] is the draw behind {!float}: [float t] equals
    [float_of_int (bits53 t) *. 0x1p-53] for the same state.  It advances
    the stream by one draw, like {!bits64}, without boxing the result. *)

val bool : t -> bool
(** [bool t] returns a uniform boolean. *)

val below_percent : t -> float -> bool
(** [below_percent t p] performs the paper's sampling test: true with
    probability [p] where [p] is expressed as a fraction in [\[0, 1\]].
    The paper phrases this as "a random number modulo 100 is less than 10"
    for a 10% probability; we use the full-precision equivalent. *)

val canary64 : t -> int64
(** [canary64 t] returns a random canary value, guaranteed non-zero so that
    freshly zeroed memory can never masquerade as an intact canary. *)
