(** Live fleet health: one record per epoch barrier.

    The fleet simulator builds a {!sample} at every epoch barrier — in the
    main domain, after all workers have joined, so emission can never race
    the parallel section — and hands it to the run's health callback,
    the only place samples go.  Serialised as one
    [csod.fleet.health/2] JSONL line per epoch, the stream is the live
    view of the run: rolling detection CDF, per-domain throughput,
    degradation and fault tallies, straggler skew, and the cost of the
    telemetry plane itself.

    The stream deliberately self-measures: [merge_seconds] is the wall
    time of the barrier's telemetry merge (the uid-order fold of every
    execution's registry and profile into the fleet aggregate), and
    [observer_seconds] is what the {e previous} barrier spent building and
    emitting health and trace data (the current record cannot contain its
    own emission cost).  Every perf claim read off the stream carries its
    own error bar. *)

type domain_load = {
  slot : int;  (** pool worker slot; 0 is the calling domain *)
  executed : int;  (** executions this worker ran this epoch *)
  busy_seconds : float;  (** wall time inside executions this epoch *)
}

type sample = {
  epoch : int;
  arrivals : int;
  detections : int;  (** detections in this epoch *)
  cumulative : int;  (** detections so far *)
  users : int;  (** total fleet size *)
  cdf : float;  (** [cumulative / users]; 0 for an empty fleet *)
  store_contexts : int;  (** shared store size after the barrier *)
  patched : int;
      (** contexts whose accumulated evidence has crossed the code-less
          patching conviction threshold; 0 when no patch policy is active *)
  degraded : int;  (** executions so far that fell back to canary-only *)
  worker_crashes : int;  (** injected pool crashes so far *)
  faults : (string * int) list;
      (** cumulative fault/degradation counters from the merged registry *)
  snapshots : int;  (** telemetry snapshots emitted by executions so far *)
  epoch_seconds : float;  (** wall time of the whole epoch *)
  merge_seconds : float;  (** wall time of the barrier's telemetry merge *)
  observer_seconds : float;
      (** previous barrier's health/trace emission cost; 0.0 at epoch 0 *)
  execs_per_sec : float;  (** fleet-wide: [arrivals / epoch_seconds] *)
  straggler_skew : float;
      (** slowest / median per-domain busy time; 1.0 when under 2 workers
          ran *)
  domains : domain_load list;  (** one per pool worker, slot order *)
}

val schema : string
(** ["csod.fleet.health/2"]. *)

val straggler_skew : float list -> float
(** [straggler_skew busy] is max/median over the positive entries; [1.0]
    when fewer than two workers did work or the median underflows. *)

val to_json : sample -> Obs_json.t
(** The full JSONL object: [{"event": "fleet.health", ...fields}]. *)

val spec : sample Schema.t
(** The format and its decoder, which [csod_run top] reads the stream
    with: [Error] on a missing or mistyped field, a fault count that is
    not an int, or a [cdf] outside [\[0, 1\]]. *)

val render : ?color:bool -> sample list -> string
(** One-screen ANSI dashboard over the stream so far (oldest first):
    headline, CDF sparkline, cost line, per-domain load bars.  [color]
    (default true) gates the escape codes. *)
