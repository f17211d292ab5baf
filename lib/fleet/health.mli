(** The epoch record: one per epoch barrier, and the fold its readers run.

    {!Fleet.step} counts an epoch once, at its barrier, into a {!t}: the
    epoch's own deterministic facts (arrivals, detections, degradations,
    crashes, fault counters, snapshots, virtual cycles) and the shared
    store's state after the barrier.  Every file that holds epochs writes
    this record through one field table ({!to_json}, {!of_json}):
    - [csod_run fleet --live] streams it with its [wall] object as one
      [csod.fleet.health/3] JSONL line per epoch;
    - the serve history writes it without [wall] as the body of a
      [health] record, and the serve status's [last] member is the latest.

    Nothing cumulative is stored.  A reader folds the records ({!fold},
    built on {!merge}) into an {!agg}: detections and arrivals so far,
    the detection CDF over arrivals, the virtual clock from the summed
    cycles, and the contexts newly convicted as the difference of
    [patched] states.  The fleet table, the fleet report, [csod_run top],
    the serve totals, its rolling windows, its alert rules and [replay]
    all run this one fold.

    The [wall] object is the only part that varies run to run: it
    self-measures the telemetry plane.  [merge_seconds] is the wall time
    of the barrier's telemetry merge, and [observer_seconds] what the
    {e previous} barrier spent building and emitting health and trace data
    (a record cannot contain its own emission cost). *)

type domain_load = {
  slot : int;  (** pool worker slot; 0 is the calling domain *)
  executed : int;  (** executions this worker ran this epoch *)
  busy_seconds : float;  (** wall time inside executions this epoch *)
}

type wall = {
  epoch_seconds : float;  (** wall time of the whole epoch *)
  merge_seconds : float;  (** wall time of the barrier's telemetry merge *)
  observer_seconds : float;
      (** previous barrier's health/trace emission cost; 0.0 at epoch 0 *)
  straggler_skew : float;
      (** slowest / median per-domain busy time; 1.0 when under 2 workers
          ran *)
  domains : domain_load list;  (** one per pool worker, slot order *)
}

type t = {
  epoch : int;
  arrivals : int;  (** users admitted this epoch *)
  detections : int;  (** detections this epoch *)
  degraded : int;  (** canary-only fallbacks this epoch *)
  worker_crashes : int;  (** injected pool crashes this epoch *)
  faults : (string * int) list;
      (** fault/degradation counter increments this epoch, name-sorted,
          zeros omitted *)
  snapshots : int;  (** telemetry snapshots emitted this epoch *)
  cycles : int;  (** summed execution virtual cycles this epoch *)
  cycle_skew : float;
      (** slowest / median execution of the epoch, in virtual cycles *)
  store_contexts : int;  (** shared store size after the barrier *)
  patched : int;
      (** contexts in the shared store that have crossed the code-less
          patching conviction threshold after the barrier; 0 when no patch
          policy is active *)
  wall : wall option;  (** wall-clock facts; [None] in durable files *)
}

val schema : string
(** ["csod.fleet.health/3"]: the tag of a [--live] line. *)

val straggler_skew : float list -> float
(** [straggler_skew busy] is max/median over the positive entries; [1.0]
    when fewer than two workers did work or the median underflows. *)

val to_json : t -> Obs_json.t
(** The record as an object, fields in table order, [wall] only when
    present: a history health body and the status's [last]. *)

val of_json : Obs_json.t -> (t, string) result
(** {!to_json}'s inverse through the same table: [Error] on a missing or
    mistyped field (an int field must be an integer token), a negative
    int, a fault count that is not an int, a malformed [wall], or more
    detections than arrivals (either would put the fold's CDF outside
    \[0, 1\]). *)

val line : t -> Obs_json.t
(** A [--live] line: {!to_json} tagged with {!schema}. *)

val spec : t Schema.t
(** The [--live] format and its decoder ({!of_json}), which
    [csod_run top] reads the stream with. *)

(** {2 The fold} *)

type agg = {
  epochs : int;  (** epochs covered; 0 for {!empty} *)
  first_epoch : int;  (** lowest epoch in the span (-1 when empty) *)
  last_epoch : int;  (** highest epoch in the span (-1 when empty) *)
  arrivals : int;  (** summed over the span *)
  detections : int;
  patched : int;  (** contexts newly convicted over the span *)
  degraded : int;
  worker_crashes : int;
  faults : (string * int) list;  (** summed per counter, name-sorted *)
  snapshots : int;
  cycles : int;
  skew_max : float;  (** max per-epoch virtual straggler skew *)
  cdf_last : float;
      (** the run's detection CDF over arrivals at the span's last
          barrier *)
  store_last : int;  (** the span's most recent store size *)
  virtual_last : float;  (** the run's virtual clock at the span's last barrier *)
}

val empty : agg

val span : agg -> t -> agg
(** [span total r]: the aggregate of [r] alone, read against the run's
    [total] over the records before it — the CDF and virtual clock at
    [r]'s barrier, and the contexts [r]'s barrier convicted (its [patched]
    state less [total]'s, for a run whose store starts with none). *)

val merge : agg -> agg -> agg
(** [merge a b] with [a] covering the epochs just before [b].
    Associative over any adjacent grouping; [empty] is the identity. *)

val fold : agg -> t -> agg
(** [fold total r = merge total (span total r)]: the run's total after
    one more record. *)

val totals : t list -> agg list
(** The run's total after each record, from {!empty}. *)

val agg_to_json : agg -> Obs_json.t

val agg_of_json : Obs_json.t -> agg option
(** [None] when a field is missing or mistyped (int fields must be
    integer tokens); an absent [patched] reads 0. *)

val render : ?color:bool -> t list -> string
(** One-screen ANSI dashboard over a stream's records so far (oldest
    first), through {!fold}: headline (users arrived, detections and the
    CDF over arrivals), CDF sparkline, fault totals and, from the last
    record's [wall], the throughput, cost line and per-domain load bars.
    [color] (default true) gates the escape codes. *)
