(** Bounded-memory rolling windows over the service's epoch records.

    A window of size [W] holds the one-epoch aggregates ({!Health.span})
    of the last [W] epochs in a ring and reduces them on demand with
    {!Health.merge} — O(W) memory however long the service runs.  The
    merge is associative and its delta fields are plain sums, so
    {!aggregate} — a left fold over the ring in epoch order — is
    bit-identical to a from-scratch fold over the same epochs' records
    (pinned by [test_serve]).  Windowed numbers read off a dashboard are
    therefore never "approximately" the last [W] epochs: they are exactly
    the fold of those epochs' records. *)

type t
(** One rolling window: a ring of the last [size] per-epoch aggregates. *)

val create : size:int -> t
(** Raises [Invalid_argument] if [size < 1]. *)

val push : t -> Health.agg -> unit
(** Add the next epoch's aggregate. *)

val aggregate : t -> Health.agg
(** {!Health.merge} folded over the ring in epoch order, from
    {!Health.empty}. *)

(** {2 Window sets}

    The service keeps one ring per distinct window size (the dashboard's
    1/10/100 plus every alert rule's); a set pushes each epoch's
    aggregate into all of them and tracks the stream position for rule
    eligibility. *)

type set

val set : int list -> set
(** Deduplicates and sorts the sizes; raises on any size < 1. *)

val rows : set -> int
(** Epochs pushed into the set over its lifetime. *)

val push_set : set -> Health.agg -> unit
val get : set -> int -> Health.agg option
(** The aggregate of the window of that exact size, if the set has one. *)
