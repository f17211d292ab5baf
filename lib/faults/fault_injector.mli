(** Deterministic fault injection.

    An injector turns a {!Fault_plan} into per-opportunity decisions.  Each
    execution builds its own injector from the plan's seed and a per-
    execution salt (the execution seed), so a fleet reaches identical
    verdicts for any domain count, and re-running with the same [--faults]
    spec replays the same faults.

    The injector draws from its own PRNG stream, never the workload's: a
    fault point whose rate is zero (and with no pending one-shot) performs
    {e no} draw, so an all-zero plan is bit-identical to no plan. *)

type t

val create : plan:Fault_plan.t -> salt:int -> t
(** [salt] decorrelates executions sharing one plan (use the execution
    seed).  Same (plan, salt) ⇒ same decision stream. *)

val force : t -> Fault_plan.point -> unit
(** [force t point] schedules a deterministic single-shot: the next
    {!fire} at [point] returns true, consuming the forced shot instead of
    drawing — the plan's PRNG stream does not advance, so a forced fault
    perturbs no later rate decision.  Multiple forces queue.  This is the
    simulation harness's hook for firing a fault at an exact step. *)

val fire : ?now:float -> t -> Fault_plan.point -> bool
(** Should this opportunity fail?  True consumes a pending one-shot due at
    virtual second [now] (any pending one-shot when [now] is not supplied —
    clockless call sites), else draws against the plan's rate.  Fired
    faults are tallied for {!summary}. *)

val indexed : t -> Fault_plan.point -> index:int -> attempt:int -> bool
(** Stateless decision for parallel call sites (the fleet pool): a pure
    function of (plan seed, point, index, attempt) — independent of
    scheduling, domain count, and call order.  One-shots interpret their
    [@N] as the chunk index, firing on attempt 1.  Mutates nothing; tally
    with {!record} from a single domain. *)

val record : ?n:int -> t -> Fault_plan.point -> unit
(** Tally [n] (default 1) injected faults at [point]. *)

val count : t -> Fault_plan.point -> int
val total : t -> int

val draw_float : t -> float
(** A uniform draw from the fault stream, for fault {e shapes} (e.g. where
    to tear a torn write). *)

val summary : t -> string
(** One line: the plan and the per-point injected counts. *)
