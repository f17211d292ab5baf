(** Bounded-memory rolling windows over the service observation stream.

    A window of size [W] holds per-epoch aggregates for the last [W]
    epochs in a ring and reduces them on demand — O(W) memory however
    long the service runs.  The reduction has {e exact merge semantics}:
    {!merge} over adjacent spans is associative and delta fields are
    plain sums, so {!aggregate} — a left fold over the ring in epoch
    order — is bit-identical to a from-scratch fold over the same epochs'
    records (pinned by [test_serve]).  Windowed numbers read off a
    dashboard are therefore never "approximately" the last [W] epochs:
    they are exactly the fold of those epochs' records. *)

type agg = {
  epochs : int;        (** epochs covered; 0 for {!empty} *)
  first_epoch : int;   (** lowest epoch in the span (-1 when empty) *)
  last_epoch : int;    (** highest epoch in the span (-1 when empty) *)
  arrivals : int;      (** summed over the span *)
  detections : int;
  patched : int;       (** contexts newly convicted over the span *)
  degraded : int;
  worker_crashes : int;
  faults : (string * int) list;  (** summed per counter, name-sorted *)
  snapshots : int;
  cycles : int;
  skew_max : float;    (** max per-epoch virtual straggler skew *)
  cdf_last : float;    (** the span's most recent cdf *)
  store_last : int;    (** the span's most recent store size *)
  virtual_last : float;  (** virtual clock at the span's last barrier *)
}

val empty : agg

val of_obs : Serve_obs.t -> agg
(** The single-epoch aggregate. *)

val merge : agg -> agg -> agg
(** [merge a b] with [a] covering the epochs just before [b].
    Associative over any adjacent grouping; [empty] is the identity. *)

val agg_to_json : agg -> Obs_json.t
val agg_of_json : Obs_json.t -> agg option
(** [None] when a field is missing or mistyped (int fields must be
    integer tokens). *)

type t
(** One rolling window: a ring of the last [size] per-epoch aggregates. *)

val create : size:int -> t
(** Raises [Invalid_argument] if [size < 1]. *)

val push : t -> Serve_obs.t -> unit

val aggregate : t -> agg
(** {!merge} folded over the ring in epoch order, from {!empty}. *)

(** {2 Window sets}

    The service keeps one ring per distinct window size (the dashboard's
    1/10/100 plus every alert rule's); a set pushes each observation into
    all of them and tracks the stream position for rule eligibility. *)

type set

val set : int list -> set
(** Deduplicates and sorts the sizes; raises on any size < 1. *)

val rows : set -> int
(** Observations pushed into the set over its lifetime. *)

val push_set : set -> Serve_obs.t -> unit
val get : set -> int -> agg option
(** The aggregate of the window of that exact size, if the set has one. *)

