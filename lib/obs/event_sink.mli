(** Structured JSONL event sink.

    One JSON object per line, first field ["event"] naming the kind.  The
    {!Flight_recorder}'s lifecycle hooks and the telemetry snapshotter
    emit here when a sink is installed; with none installed every
    emission site costs exactly one branch ({!active}).

    Events carry no wall-clock timestamps — callers include virtual-clock
    fields ([at], [cycles]) instead, so two runs with the same seed
    produce byte-identical streams. *)

type t
(** A sink renders each event into one line buffer it reuses, then hands
    the line to its writer. *)

val make : ?flush:(unit -> unit) -> (string -> unit) -> t
(** [make write] builds a sink from a line writer; [flush] (default a
    no-op) is called by {!uninstall}, {!with_sink} and
    {!flush_installed}. *)

val to_channel : out_channel -> t
(** Lines are copied from the line buffer into [oc]
    ([Buffer.output_buffer]) under the channel's own buffering; the
    sink's flush flushes [oc].  The caller owns and closes the channel. *)

val to_buffer : Buffer.t -> t

val events : t -> int
(** Number of events written through this sink. *)

(** {1 The process-global sink} *)

val install : t -> unit

val uninstall : unit -> unit
(** Detaches (and first flushes) the installed sink, so a JSONL file is
    never left truncated mid-line even if the process exits without
    closing the underlying channel. *)

val active : unit -> bool

val flush_installed : unit -> unit
(** Flush the installed sink, if any.  Registered with [at_exit] at module
    initialisation, so a process that exits mid-stream (killed run, CLI
    error path) never leaves a truncated final JSONL line in a buffered
    channel. *)

val emit : string -> (string * Obs_json.t) list -> unit
(** [emit name fields] writes [{"event": name, ...fields}] to the installed
    sink; a no-op when none is installed.  Callers on hot paths should
    check {!active} first so field lists are never built needlessly. *)

val with_sink : t -> (unit -> 'a) -> 'a
(** Install [t] for the duration of the callback, flushing it and
    restoring the previous sink afterwards (used by tests). *)
