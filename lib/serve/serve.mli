(** The service loop: a long-running fleet driver in virtual time.

    [csod_run serve] wraps this module: it drives {!Fleet.step} epoch by
    epoch under an open-ended {!Workload.rate} arrival process, and at
    every barrier

    - projects the epoch's facts ({!type:Fleet.epoch}) and the run's
      tallies into a deterministic {!Serve_obs.t},
    - pushes it through the rolling {!Window.set},
    - evaluates the {!Alert} rules and logs fire/clear transitions,
    - appends health and alert records to the durable {!History},
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
  workload : Workload.t;
  domains : int;
  epoch_size : int;
  faults : Fault_plan.t option;
  patch_threshold : int option;
      (** evidence hits at which a context counts as convicted — threaded
          to {!Fleet.config} so the health stream's [patched] tally (and
          this module's per-epoch deltas) track the executor's code-less
          patching policy *)
  rules : Alert.rule list;
  windows : int list;  (** dashboard window sizes; rule windows are added *)
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
  obs : Serve_obs.t;           (** the epoch's deterministic record *)
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
val detections : 'a t -> int
val last : 'a t -> Serve_obs.t option
val windows : 'a t -> Window.set

val status_json : 'a t -> Obs_json.t
(** The live status document (schema [csod.serve.status/1]):
    deterministic run state, window aggregates, alert states, plus the
    ["wall"] sub-object (domain count, wall seconds, unix time) — the
    only nondeterministic member. *)

val status_spec : unit Schema.t
(** The status format: [cdf] in [\[0, 1\]], and the last observation
    and every window aggregate decode. *)

val checkpoint_spec : unit Schema.t
(** The checkpoint format ([csod.serve.checkpoint/2]: [epoch], [store] as
    [\[site, off, hits\]] triples, [history] as [seq], [segment] and
    [lines]): the decoder {!start} resumes with, its value dropped. *)

val render_status : ?color:bool -> Obs_json.t -> string option
(** One-screen dashboard for a [csod.serve.status/1] document — used by
    [serve --live], [top] on a status file, and [replay].  [None] if the
    document is not a status snapshot. *)

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
  meta : Obs_json.t;               (** the run's meta record *)
  observations : Serve_obs.t list; (** health bodies, epoch order *)
  recorded : Obs_json.t list;      (** alert bodies as written *)
  recomputed : Obs_json.t list;    (** alert bodies re-derived offline *)
  mismatches : string list;        (** recorded/recomputed differences *)
  read_errors : string list;
      (** {!History.log}'s errors: torn, empty or corrupt lines, failed
          checksums, records out of sequence (the log runs from seq 0),
          health bodies that do not decode and alert transitions out of
          turn; none of them is replayed, and any of them means the
          history is not whole *)
  status : Obs_json.t;             (** final status rebuilt from history
                                       (no ["wall"] member) *)
}

val replay : string -> (replay, string) result
(** [Error] when the directory has no readable meta record, or its
    [alerts] or [windows] member is missing or mistyped (the error names
    it: no default rules or windows stand in). *)
