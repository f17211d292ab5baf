(** The service loop: a long-running fleet driver in virtual time.

    [csod_run serve] wraps this module: it drives {!Fleet.step} epoch by
    epoch under an open-ended {!Workload.rate} arrival process, and at
    every barrier

    - takes the epoch's record ({!Health.t}) from {!Fleet.step} and folds
      it into the run's total and the rolling {!Window.set}
      ({!Health.span}, {!Health.merge}),
    - evaluates the {!Alert} rules and logs fire/clear transitions,
    - appends the record and the alert transitions to the durable
      {!History},
    - writes a checkpoint every [checkpoint_every] epochs, and
    - refreshes: republishes the status snapshot if at least
      {!status_period} of wall time has passed since the last refresh
      (or the clock stepped backwards).  The first barrier after {!start}
      always refreshes, and {!finish} always publishes.

    The status record is virtual-time; only {e when} the file is
    republished depends on wall time.  [csod_run serve --live] repaints
    its dashboard on the same refreshes.

    Determinism contract: for a given workload (seed, schedule) the
    history segments, the alert stream and the status document minus its
    ["wall"] member are bit-identical at any [domains] count — pinned by
    [test_serve].  Wall-clock facts exist only in the status ["wall"]
    object, never in history.

    The history is the service's durable log; a checkpoint holds only
    what it cannot rebuild: the evidence store and the history position.
    {!start} resumes by replaying the history through the fold {!replay}
    runs, then continues the {e same} deterministic stream (fleet
    epoch/uid offsets keep fault draws aligned), so the remaining history
    bytes match an uninterrupted run's.  A fresh start never writes into
    a directory that already holds a run. *)

type config = {
  meta : History.meta;
      (** the run's description: workload, epoch size, faults, the
          evidence hits at which a context counts as convicted (threaded
          to {!Fleet.config}, so the records' [patched] state tracks the
          executor's code-less patching policy), alert rules and dashboard
          window sizes (rule windows are added) *)
  domains : int;
  history_dir : string option;
  rotate : int;  (** history lines per segment *)
  status_path : string option;
      (** the status file, republished at each refresh and by {!finish} *)
  checkpoint_path : string option;  (** needs [history_dir] *)
  checkpoint_every : int;  (** epochs between checkpoints; 0 = only final *)
}

val config :
  ?domains:int ->
  ?epoch_size:int ->
  ?faults:Fault_plan.t ->
  ?patch_threshold:int ->
  ?rules:Alert.rule list ->
  ?windows:int list ->
  ?history_dir:string ->
  ?rotate:int ->
  ?status_path:string ->
  ?checkpoint_path:string ->
  ?checkpoint_every:int ->
  Workload.t ->
  config
(** Defaults: [domains = Pool.default_domains ()], [epoch_size = 32],
    no faults, no patch threshold, [rules = Alert.defaults],
    [windows = \[1; 10; 100\]],
    no history/status/checkpoint files, [rotate = 4096],
    [checkpoint_every = 0].  Raises [Invalid_argument] on a checkpoint
    path without a history directory, which a resume replays. *)

val status_period : float
(** Least wall time between two status refreshes: 0.1 s.  A reader
    polling the status file ([csod_run top --follow], every 0.5 s by
    default) reads a state at most this much older than the service's
    last barrier; an epoch longer than this refreshes at every barrier. *)

type 'a t

val start : config -> execute:'a Fleet.executor -> ('a t, string) result
(** A fresh service — unless [config.checkpoint_path] names an existing
    file, in which case the service resumes from it: the history is cut
    back to the checkpoint's position (records a crashed session wrote
    after it go) and the kept records are replayed.  [Error], rather than
    a restart or a continuation of another run, when the checkpoint is not
    [csod.serve.checkpoint/2], a kept history line is corrupt or out of
    sequence, the meta record differs from this configuration's (workload
    and seed, epoch size, faults, patch threshold, rules, windows), the
    history holds another number of epochs than the checkpoint, or its
    health records derive another alert stream than the recorded one.
    A fresh start is refused too ([Error], nothing deleted or cut) when
    [config.history_dir] already holds segments: appending a second run
    after the first would leave a log that neither [replay] nor a resume
    can read. *)

type outcome = {
  record : Health.t;           (** the epoch's record, without [wall] *)
  events : Alert.event list;   (** alert transitions at this barrier *)
  refreshed : bool;
      (** this barrier refreshed: it republished the status file (when
          one is configured) *)
}

val step : 'a t -> outcome
(** Run the next epoch: arrivals are [Workload.rate] at the current
    epoch, clamped to the unserved population (0 once everyone has
    arrived — the service keeps observing an idle fleet). *)

val finish : 'a t -> 'a Fleet.report
(** Close out: publish the final status and checkpoint (if configured),
    close the history writer, and return the underlying fleet report
    (lean: first catch, merged registries, store). *)

val epoch : 'a t -> int
val arrived : 'a t -> int

(** {2 Status}

    The status document ([csod.serve.status/2]): the run's total (the fold
    of its records), the latest record as the history writes it, the
    window aggregates, the alert states and, live only, the wall facts. *)

type wall = { domains : int; wall_seconds : float; unix_time : float }
type alerts = { rules : string list; firing : (string * int) list (** spec, since *) }

type status = {
  epoch : int;  (** epochs served *)
  arrived : int;
  detections : int;
  patched : int;  (** contexts newly convicted *)
  cdf : float;  (** detections over arrivals *)
  virtual_seconds : float;
  last : Health.t option;
  windows : (int * Health.agg) list;  (** by dashboard window size *)
  alerts : alerts;  (** rules as {!Alert.to_spec} *)
  wall : wall option;  (** the only nondeterministic member *)
}

val status : 'a t -> status
val status_to_json : status -> Obs_json.t
val status_json : 'a t -> Obs_json.t  (** [status_to_json (status t)] *)

val status_spec : status Schema.t
(** The status's field table: [cdf] in [\[0, 1\]], no more detections than
    arrivals, nothing negative, the last record and every window decode,
    window keys are sizes of at least 1, a firing alert is a
    [{spec, since}] object.  A [csod.serve.status/1] file is refused by its
    tag. *)

(** {2 Checkpoint} *)

type position = { seq : int; segment : int; lines : int }  (** the history writer's *)

type checkpoint = {
  epoch : int;
  store : (int * int * int) list;  (** [(site, off, hits)], [hits >= 1] *)
  history : position;
}

val checkpoint_to_json : checkpoint -> Obs_json.t

val checkpoint_spec : checkpoint Schema.t
(** [csod.serve.checkpoint/2] from its field table, the decoder {!start}
    resumes with: no [(site, off)] twice, whose hits would add up twice. *)

val render_status : ?color:bool -> status -> string
(** One-screen dashboard for a status record — used by [serve --live],
    [top] on a status file (decoded by {!status_spec}), and [replay]. *)

(** {2 Offline replay}

    [csod_run replay] rebuilds the service's view from the history
    directory alone, through the fold a resume runs: windows and alert
    rules are re-evaluated over the recorded health bodies and the
    recomputed alert stream is compared, JSON-for-JSON, against the
    recorded one.  The log is read by {!History.read}, the decoder
    [validate] runs: a line it refuses is listed, never replayed, and
    makes the audit fail — [csod_run replay] exits 1 on any read error
    and claims no match for a log that is not whole. *)

type replay = {
  meta : History.meta;             (** the run's meta record *)
  health : Health.t list;          (** health bodies, epoch order *)
  recorded : Alert.event list;     (** alert transitions as written *)
  recomputed : Alert.event list;   (** alert transitions re-derived offline *)
  mismatches : string list;        (** recorded/recomputed differences *)
  read_errors : string list;
      (** {!History.log}'s errors: torn, empty or corrupt lines, failed
          checksums, records out of sequence (the log runs from seq 0),
          health bodies that do not decode and alert transitions out of
          turn; none of them is replayed, and any of them means the
          history is not whole *)
  status : status;                 (** final status rebuilt from history
                                       (no [wall]) *)
}

val replay : string -> (replay, string) result
(** [Error] when the directory has no readable meta record, naming the
    first read error: a history in another format, such as
    [csod.serve.history/1], names its tag, and a meta record that does not
    decode ({!History.meta_of_json}) names its member: no default rules or
    windows stand in. *)
