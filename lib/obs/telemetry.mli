(** Per-machine telemetry bundle: a metrics registry, a cycle-attribution
    profiler, and periodic snapshot scheduling over the virtual clock.

    Every {!Machine.t} owns one bundle; the allocator, the CSOD runtime
    units and the ASan baseline all reach it through the machine they
    already hold.  Telemetry never draws randomness and never advances the
    clock, so its presence cannot change a simulated execution.  Its
    periodic snapshots are the one kind of line on the [--events] stream
    that is not a {!Flight_recorder} record: they go out on the installed
    recorder's stream, between the records around them. *)

type t

val create : unit -> t
val metrics : t -> Metrics.t
val profiler : t -> Profiler.t

(** {1 Periodic snapshots} *)

val set_snapshot_interval : t -> cycles:int -> unit
(** Emit a ["snapshot"] event on the installed recorder's stream
    ({!Flight_recorder.stream_event}) every [cycles] of virtual time; [0]
    (the default) disables snapshots.  A boundary crossed while no stream
    is attached emits nothing and is not counted.  With snapshots
    disabled each clock advance costs one comparison. *)

val tick : t -> now:int -> unit
(** Called by the machine after every clock advance with the new cycle
    count; emits any snapshot whose interval boundary has been crossed. *)

val snapshot_count : t -> int

val next_snapshot : t -> int
(** The cycle count of the next snapshot boundary, above the clock after
    every {!tick}; [max_int] while snapshots are disabled.  Reading it
    changes nothing: a caller that batches clock advances checks that the
    batch ends before it. *)

(** {1 Merging} *)

val merge_into : dst:t -> src:t -> unit
(** Fold one execution's bundle into an aggregate: {!Metrics.merge_into}
    on the registries, {!Profiler.merge_into} on the profiles, snapshot
    counts added.

    Snapshot {e scheduling} state ([set_snapshot_interval]'s interval and
    the next boundary) is deliberately not merged: the interval is a
    property of [dst]'s own virtual clock, while [src] ran on a different
    machine whose cycle counts are incomparable — importing its boundary
    would make [dst] emit at a nonsense point in its own time.  [dst]
    keeps its cadence; only the {e count} of snapshots already emitted is
    summed, so the next snapshot [dst] emits carries a [seq] that
    continues after the union (merging a bundle that emitted [k] snapshots
    advances [dst]'s next [seq] by [k]).  Pinned by the snapshot-sequencing
    unit test in [test_obs]. *)

(** {1 Export} *)

val to_json : t -> total_cycles:int -> Obs_json.t
(** Full dump: counters, gauges, histograms and the per-phase cycle
    decomposition, plus [total_cycles] for cross-checking coverage. *)

val json_string : t -> total_cycles:int -> string

val profile_table : t -> total_cycles:int -> string
(** Rendered {!Table_fmt} table of nonzero phases with their share of the
    charged cycles. *)

val summary : t -> total_cycles:int -> string
(** The metrics table followed by {!profile_table}. *)
