(** Declarative fault plans: what can fail, how often, and when.

    A plan is a pure description — per-point failure rates (probability per
    opportunity) plus one-shot faults scheduled in virtual time — shared by
    every execution of a run.  The randomness making the per-opportunity
    decisions lives in {!Fault_injector}, instantiated once per execution
    from the plan's seed, on a PRNG stream {e separate} from the workload's:
    injecting faults never consumes a draw the simulated application or the
    CSOD runtime would otherwise have made.

    Plans are written on the command line as comma-separated entries:

    {v seed=7,ebusy=0.25,trap-drop=0.1,persist-torn@0 v}

    [point=RATE] injects with probability RATE at every opportunity;
    [point@T] injects exactly once, at the first opportunity at or after
    virtual second T ([worker-crash@N] instead names the chunk index N,
    the fleet pool having no virtual clock of its own). *)

type point =
  | Perf_ebusy      (** [perf_event_open] fails: debug registers held by
                        another debugger (transient — retryable) *)
  | Perf_eacces     (** [perf_event_open] fails: no permission (persistent) *)
  | Trap_drop       (** a SIGTRAP is lost before delivery *)
  | Trap_delay      (** a SIGTRAP is delivered late (extra latency cycles) *)
  | Persist_torn    (** a store write is torn: truncated, non-atomic *)
  | Persist_enospc  (** a store write hits a full disk *)
  | Worker_crash    (** a fleet worker domain crashes, losing its chunk *)

val all_points : point list
val point_name : point -> string

val point_id : point -> int
(** Stable small integer naming the point in hash-derived streams. *)

type t = {
  seed : int;                      (** fault-stream seed (default 0) *)
  rates : (point * float) list;    (** nonzero per-opportunity rates *)
  oneshots : (point * float) list; (** scheduled one-shots, virtual seconds *)
}

val zero : t
(** No faults.  Running under [zero] is bit-identical to running with no
    plan at all — the no-perturbation pin of [test_faults]. *)

val is_zero : t -> bool
val rate : t -> point -> float
val oneshots_for : t -> point -> float list

val of_string : string -> (t, string) result
(** Parse a CLI spec.  Rates outside [0, 1], negative times, and unknown
    point names are rejected with a message. *)

val to_string : t -> string
(** Round-trips through {!of_string} (modulo zero-rate entries, which are
    dropped).  [zero] prints as ["none"]. *)
