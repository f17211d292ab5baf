(** Parallel fleet simulator with epoch-based evidence aggregation.

    Simulates CSOD's crowdsourced deployment (paper, Sections I and IV-B)
    at scale: a population of users ({!Workload.t}) executes a program
    concurrently on a domain pool ({!Pool}), sharing the persistent store
    of overflowing contexts through {e epoch barriers} — every execution
    in an epoch starts from the same store snapshot, and the per-user
    stores are folded back in at the barrier ({!Persist.merge}), modeling
    periodic fleet report upload rather than instant sharing.  Contexts
    discovered in epoch [e] are therefore pinned (probability 1) for
    every user from epoch [e+1] on.

    The simulator is generic over {e what} an execution is: callers
    provide an {!type:executor} (the harness wires {!Execution.run} in, tests
    use synthetic ones), and the simulator provides scheduling, evidence
    flow and telemetry aggregation.

    Each epoch is counted once, at its barrier: {!step} returns the
    epoch's own facts (an {!type:epoch}), {!run} folds them into the
    report's seats and its cumulative health stream, and a service
    ([Serve]) projects them into its per-epoch record.

    {b Determinism}: the report — detections, sources, first-catch epoch,
    merged store and merged metrics — is bit-identical for any [domains]
    count.  Each execution is deterministic given [(user, store
    snapshot)]; snapshots only change at barriers; and all merges happen
    at barriers in uid (= seed) order.  Wall-clock time is the only field
    that varies.  The executor must keep its side effects confined to the
    structures it creates and the store it is handed; in particular it
    must not install a {!Flight_recorder}, the one process-global the
    runtime's hooks write to, from inside the parallel section. *)

type 'a execution = {
  payload : 'a;                    (** whatever the executor wants kept *)
  detected : bool;
  source : Report.source option;   (** first report's mechanism, if any *)
  cycles : int;                    (** virtual cycles of the execution *)
  telemetry : Telemetry.t option;  (** merged into the fleet aggregate *)
  degraded : bool;
      (** the execution fell back to canary-only protection; tallied into
          the health stream *)
}

type 'a executor = user:Workload.user -> store:Persist.t -> 'a execution
(** Runs one user.  Newly observed overflowing contexts must be added to
    [store] (the CSOD runtime already does); [store] starts as a snapshot
    of everything the fleet knew at the previous epoch barrier. *)

type 'a seat = { user : Workload.user; epoch : int; exec : 'a execution }

(** One epoch barrier's own facts, counted once at the barrier: {!run}
    folds them into the report and its health stream, a service projects
    them into its per-epoch record.  Every tally is the epoch's, not the
    session's; only the wall-clock fields vary run to run. *)
type 'a epoch = {
  index : int;                   (** the epoch number *)
  seats : 'a seat array;         (** uid order; its length is the arrivals *)
  detections : int;
  degraded : int;                (** executions that fell back to canary-only *)
  worker_crashes : int;          (** injected pool crashes *)
  faults : (string * int) list;
      (** increments of the fault/degradation counters the merged registry
          has seen, in a fixed order, zeros included *)
  snapshots : int;               (** telemetry snapshots of the executions *)
  cycles : int;                  (** summed virtual cycles *)
  cycle_skew : float;
      (** slowest / median execution in virtual cycles
          ({!Health.straggler_skew}): the deterministic straggler signal *)
  store_contexts : int;          (** shared-store contexts after the barrier *)
  patched : int;
      (** contexts with at least [config.patch_threshold] hits after the
          barrier (0 without a threshold) *)
  workers : Pool.worker array;   (** per-worker loads and spans, slot order *)
  started_at : float;            (** wall clock when the epoch began, *)
  barrier_at : float;            (** when the last worker joined, *)
  merged_at : float;             (** and when the barrier finished *)
  merge_seconds : float;         (** wall time of the telemetry merge *)
}

type 'a report = {
  seats : 'a seat array;         (** uid order, one per user *)
  first_catch : 'a seat option;  (** earliest by (epoch, uid) *)
  detections : int;
  metrics : Metrics.t;
      (** per-user registries, folded in uid order at each barrier *)
  profile : Profiler.t;          (** per-user profiles, summed *)
  store : Persist.t;             (** final shared store *)
  domains : int;
  wall_seconds : float;
  faults : Fault_injector.t option;
      (** the pool's crash injector, for post-run fault accounting *)
  health : Health.sample list;
      (** one {!Health.sample} per epoch barrier, epoch order: the
          detection CDF *)
  trace_spans : Trace_export.fleet_span list;
      (** with [config.trace]: wall-clock spans (domain chunks, barrier
          waits, merges) for {!Trace_export.fleet_spans_to_json} *)
}

type config = {
  workload : Workload.t;
  domains : int;     (** degree of parallelism; 1 = fully sequential *)
  epoch_size : int;  (** mean arrivals per epoch (see {!Workload.arrivals}) *)
  faults : Fault_plan.t option;
      (** worker-crash injection for the pool (chunk index = uid - 1);
          crashed chunks are requeued/serialized, so the report stays
          bit-identical to an unfaulted run *)
  trace : bool;
      (** {!run} records wall-clock epoch spans into [report.trace_spans].
          Default [false]. *)
  on_health : (Health.sample -> unit) option;
      (** live health callback, invoked by {!run} at each epoch barrier
          from the main domain (all workers joined) — safe to write to a
          channel.  It is the only channel health samples go out on: the
          fleet itself writes them nowhere else. *)
  patch_threshold : int option;
      (** evidence hits at which the shared store convicts a context.
          Only feeds the epoch's [patched] tally — the actual mitigation
          lives in the executor's response mode, which consults the same
          store snapshots, so tally and behaviour agree.  Default [None]
          (tally stays 0). *)
}

val config :
  ?domains:int ->
  ?epoch_size:int ->
  ?faults:Fault_plan.t ->
  ?trace:bool ->
  ?on_health:(Health.sample -> unit) ->
  ?patch_threshold:int ->
  Workload.t ->
  config
(** Defaults: [domains = Pool.default_domains ()], [epoch_size = 32], no
    fault plan, [trace = false], no health callback, no patch
    threshold. *)

val run : ?store:Persist.t -> config -> execute:'a executor -> 'a report
(** Simulate the whole fleet.  [store] seeds the shared store (default
    empty) and is not mutated; the report carries its own.  {!start}, one
    {!step} per {!Workload.arrivals} epoch, then {!finish}; [run] folds
    the epochs into the report's seats, its health stream (cumulative
    tallies over the known population, emitted through
    [config.on_health], whose own cost the next sample's
    [observer_seconds] carries) and, with [config.trace], its spans. *)

(** {2 Incremental stepping}

    A long-running service drives the fleet one epoch barrier at a time
    under an open-ended arrival process, instead of materialising the
    whole schedule upfront.  Create a state with {!start}, advance it
    with {!step} (each call runs one complete epoch: snapshot, parallel
    execution, evidence + telemetry barrier) and {!finish} it when done.
    The state keeps nothing per user or per epoch — only the store, the
    merged registries and the running tallies — so memory stays flat for
    an unbounded run; what a caller keeps of each {!type:epoch} is its
    own choice. *)

type 'a t
(** In-flight fleet state between epoch barriers. *)

val start :
  ?store:Persist.t ->
  ?epoch0:int ->
  ?uid0:int ->
  config ->
  execute:'a executor ->
  'a t
(** [epoch0]/[uid0] (defaults 0/1) offset epoch numbering and uid
    assignment so a resumed service continues the same deterministic
    stream — pool fault draws are indexed by [uid - 1] and line up with
    an uninterrupted run. *)

val step : 'a t -> arrivals:int -> 'a epoch
(** Run one epoch with [arrivals] fresh users (uids assigned
    sequentially) and return its facts.  Neither the health callback nor
    the trace is touched: {!run} builds those from the result. *)

val finish : 'a t -> 'a report
(** Commit the crash tally into the merged metrics and assemble the
    report: first catch, detections, merged registries and store, with no
    seats, health samples or spans.  [wall_seconds] covers {!start} to
    {!finish}. *)

val metrics : 'a t -> Metrics.t
(** The merged fleet registry so far (fault and degradation counters
    accumulate here at each barrier). *)

val store : 'a t -> Persist.t
(** The live shared store — read it to checkpoint; do not mutate
    mid-epoch. *)

val first_catch : 'a t -> 'a seat option
(** The earliest detecting seat so far. *)

val detections : 'a t -> int
val arrived : 'a t -> int
val next_uid : 'a t -> int
val epoch : 'a t -> int
(** Running tallies: detections so far, users arrived so far, the next
    uid {!step} will assign, and the next epoch number. *)

val detection_uids : 'a report -> int list
(** Uids that detected, ascending — the fleet's detection set. *)

val summary : 'a report -> string
(** Human-readable report: headline, detection-CDF table, wall clock. *)

val to_json :
  ?payload:('a -> Obs_json.t) -> app:string -> config:string -> 'a report ->
  Obs_json.t
(** Machine-readable report (schema [csod.fleet.report/1]): workload
    echo, per-epoch rows ({!Epoch.to_json} of each health sample),
    detection set, first catch, merged metrics. *)

val report_spec : unit Schema.t
(** The report's format. *)
