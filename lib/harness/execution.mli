(** One execution of a buggy application under a tool configuration. *)

type input_choice = Buggy | Benign

type outcome = {
  detected : bool;                 (** did the tool flag an overflow? *)
  reports : Report.t list;         (** CSOD reports (empty for other tools) *)
  watchpoint_reports : Report.t list;
      (** the subset detected by a firing watchpoint — what Table II counts *)
  asan_detections : Asan.detection list;
  stats : Runtime.stats option;    (** CSOD runtime counters *)
  cycles : int;                    (** virtual cycles of the execution *)
  output : string;                 (** program stdout *)
  crashed : string option;         (** runtime/heap fault, if any; the tool's
                                       termination handling still ran *)
  degraded : bool;                 (** did CSOD fall back to canary-only mode?
                                       (see {!Runtime.degraded}) *)
  faults : Fault_injector.t option;
      (** this execution's injector, carrying per-point fired counts *)
  telemetry : Telemetry.t;         (** the machine's metrics registry and
                                       cycle-attribution profile for this run *)
  respond : Respond.summary option;
      (** active-response tallies, when a mode other than [Off] ran *)
  survived : bool;
      (** oblivious mode only: the execution ran to completion with every
          detected out-of-bounds access redirected and no corruption
          escaping past a canary.  Always false when the response layer is
          off — an undetected silent run is not a survival claim. *)
}

val run_program :
  program:Program.t ->
  inputs:int array ->
  ?instrumented:(int -> bool) ->
  config:Config.t ->
  ?engine:Engine.t ->
  ?seed:int ->
  ?store:Persist.t ->
  ?respond:Respond.mode ->
  ?snapshot_cycles:int ->
  ?faults:Fault_plan.t ->
  unit ->
  outcome
(** Execute [program] once on a fresh machine, with [inputs] for its
    [input()] builtin.  [instrumented] tells ASan which code addresses are
    instrumented (default: all of them).  The other arguments are
    {!run}'s. *)

val run :
  app:Buggy_app.t ->
  config:Config.t ->
  ?engine:Engine.t ->
  ?input:input_choice ->
  ?seed:int ->
  ?store:Persist.t ->
  ?respond:Respond.mode ->
  ?snapshot_cycles:int ->
  ?faults:Fault_plan.t ->
  unit ->
  outcome
(** Execute the app once on a fresh machine: {!run_program} on the app's
    program, the inputs [input] picks, and its instrumented modules.
    [engine] picks the MiniC execution engine (default the bytecode VM,
    {!Engine.Vm}); both engines are observably identical, so the choice
    only affects host-time throughput.  [seed] (default 1) varies
    both the machine RNG (CSOD's sampling draws) and the program-visible
    [rand] (timing jitter), modeling distinct production executions.
    [input] defaults to [Buggy].  [snapshot_cycles] (default 0 = off)
    enables periodic telemetry snapshots at that virtual-cycle interval.
    [faults] arms deterministic fault injection on the machine
    (perf-event failures, trap drop/delay), with an injector salted by
    [seed]; the injector is returned in the outcome for accounting and
    for faulting any subsequent {!Persist.save}.  The tool's termination
    handling always runs, even after a crash — mirroring CSOD's
    interception of erroneous exits (Section IV-B). *)

val executor :
  app:Buggy_app.t ->
  config:Config.t ->
  ?engine:Engine.t ->
  ?input_of:(Workload.user -> input_choice) ->
  ?respond:Respond.mode ->
  ?faults:Fault_plan.t ->
  unit ->
  outcome Fleet.executor
(** Adapt {!run} to the fleet simulator: one user execution per call, on
    the user's seed and input choice (default: [Benign] iff
    [user.benign]), against the store snapshot the fleet hands over.  The
    returned closure is safe to call from pool domains — the app's
    program memo (and the VM's bytecode cache) is forced eagerly, and each
    execution builds its own machine, heap and tool. *)

val run_until_detected :
  app:Buggy_app.t -> config:Config.t -> max_runs:int -> (int * outcome) option
(** Repeat single executions with seeds 1, 2, ... until one detects the
    overflow; returns (number of executions needed, that outcome).  Each
    execution is independent (fresh empty store): independent retries,
    where {!Evidence.fleet} shares the evidence. *)

val symbolizer : Buggy_app.t -> int -> string
(** Address symbolizer for the app's program, for report formatting. *)
