(** Replays a performance workload's allocation stream against a tool and
    measures virtual cycles, resident memory, and watchpoint activity —
    the machinery behind Figure 7 and Tables IV and V.

    The stream realizes the profile's characteristics: its context census
    is minted the way the paper observes real programs doing it (a long
    tail of one-shot contexts plus a few hot ones carrying ~90% of
    allocations), objects live in a FIFO working set sized to the
    profile's footprint, and each iteration charges the profile's share of
    application compute.  ASan's per-access shadow-check cost is charged
    from the profile's instrumented-access rate: those accesses are
    modeled in aggregate (performing hundreds of millions of individual
    simulated loads would measure the simulator, not the tool).

    Allocation streams above {!max_sim_allocations} are subsampled: the
    stream runs [n/scale] allocations and tool-attributable cycles are
    re-extrapolated by [scale] (tool cost is per-allocation, so it scales
    linearly); compute cycles are spread so the full virtual runtime is
    preserved, keeping the time-dependent sampling machinery (burst
    windows, probability decay) on the same clock as the native run.

    A stream releases its machine's memory ({!Sparse_mem.release}) once
    its result is computed, so the next stream on the domain reuses its
    pages and its heap and context-table stores. *)

val max_sim_allocations : int
(** 2,000,000. *)

type result = {
  config : Config.t;
  cycles : int;            (** extrapolated virtual cycles of the full run *)
  sim_allocations : int;   (** allocations actually simulated *)
  scale : int;             (** subsampling factor (1 = exact) *)
  watched_times : int;     (** watchpoint installs observed in the simulated
                               stream (Table IV WT); not extrapolated, since
                               install pressure saturates as probabilities
                               degrade *)
  contexts_seen : int;     (** distinct contexts the tool observed *)
  resident_kb : int;       (** peak resident set: heap + tool side tables *)
  syscalls : int;          (** kernel crossings charged (watchpoint traffic) *)
  detected : bool;         (** must stay false: these workloads are bug-free *)
  telemetry : Telemetry.t; (** metrics + per-phase cycle attribution (not
                               extrapolated: raw simulated-stream figures) *)
}

val run : profile:Perf_profile.t -> config:Config.t -> ?seed:int -> unit -> result

val overhead : baseline:result -> result -> float
(** [overhead ~baseline r] is the normalized runtime of [r], e.g. 1.067
    for +6.7%. *)
