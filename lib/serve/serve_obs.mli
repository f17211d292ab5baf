(** The service loop's per-epoch observation: the deterministic
    projection of one epoch barrier.

    A {!Health.sample} mixes virtual-time facts (arrivals, detections,
    store growth) with wall-clock measurements (busy seconds, straggler
    skew, merge cost) that legitimately differ run to run and domain
    count to domain count.  A service that promises {e bit-identical
    durable history} for the same seed and schedule can only persist the
    former — so this record keeps exactly the fields that are a pure
    function of [(seed, schedule)], plus the fleet's virtual clock
    (summed execution cycles), and re-derives the straggler signal from
    {e virtual} per-execution cycles instead of wall time.

    Tally fields are per-epoch deltas, not cumulative — deltas make
    rolling-window aggregation an exact sum ({!Window.merge}) and let a
    resumed service keep emitting correct records without replaying its
    past. *)

type t = {
  epoch : int;
  arrivals : int;          (** users admitted this epoch *)
  arrived : int;           (** users admitted so far (cumulative) *)
  detections : int;        (** detections this epoch *)
  cumulative : int;        (** detections so far *)
  cdf : float;             (** [cumulative / arrived]; 0 for an empty fleet *)
  store_contexts : int;    (** shared store size after the barrier *)
  patched : int;
      (** contexts newly convicted (evidence crossed the patch threshold)
          this epoch; 0 when no patch policy is active *)
  degraded : int;          (** canary-only fallbacks this epoch *)
  worker_crashes : int;    (** injected pool crashes this epoch *)
  faults : (string * int) list;
      (** fault/degradation counter increments this epoch, name-sorted *)
  snapshots : int;         (** telemetry snapshots emitted this epoch *)
  cycles : int;            (** summed execution virtual cycles this epoch *)
  virtual_seconds : float; (** fleet virtual clock after the barrier *)
  cycle_skew : float;
      (** slowest / median execution of the epoch, in virtual cycles *)
}

val to_json : t -> Obs_json.t
(** The record as a JSON object — the [body] of a [kind = "health"]
    history line. *)

val of_json : Obs_json.t -> t option
(** Parse a record back ([csod_run replay]'s reader).  [None] when a
    required field is missing or mistyped (an int field must be an
    integer token) or [cdf] lies outside [\[0, 1\]]. *)
