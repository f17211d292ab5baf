(** Per-domain telemetry shard for fleet aggregation.

    Merging every execution's registry into one aggregate at the epoch
    barrier would be a serial, O(users) pass in the main domain.  A shard
    moves that work into the workers: each
    domain owns a private shard and {!absorb}s each execution's telemetry
    as it completes (lock-free — the shard is domain-local by
    construction), so the barrier only has to reduce [domains] shards.

    The subtlety is gauges.  Counters, histogram bins and profiler cells
    are commutative sums, but a gauge's merged level is
    last-writer-wins, and the fleet defines "last" as {e highest uid}
    (the order of a uid-ordered per-user fold).  Workers absorb in completion
    order — scheduling-dependent — so each shard also remembers, per
    gauge, the level written by the highest-uid execution it absorbed.
    {!reduce_into} resolves the winners across shards and re-applies
    their levels after the sum-merge, making the committed aggregate
    bit-identical to the uid-ordered per-user fold for any domain count
    and any scheduling (pinned by the equivalence tests in [test_fleet],
    which compute that fold themselves). *)

type t

val create : unit -> t

val absorb : t -> uid:int -> Telemetry.t -> unit
(** Fold one execution's bundle into the shard (worker-domain local, no
    synchronisation): metrics and profiler merge in, snapshot counts add,
    and every gauge's [(uid, level)] is recorded if [uid] beats the
    shard's current winner for that gauge. *)

val absorbed : t -> int
(** Executions absorbed (after {!reduce_into}: across all reduced shards). *)

val snapshots : t -> int
(** Total telemetry snapshots emitted by absorbed executions. *)

val merge_into : dst:t -> src:t -> unit
(** Shard-level reduction step: sum-merge [src]'s registries into [dst]
    and keep the higher-uid gauge winner per gauge key.  [src] is untouched. *)

val reduce_into : t array -> metrics:Metrics.t -> profile:Profiler.t -> int
(** Pairwise tree-reduce the shards (mutating them), commit the result
    into the fleet aggregate, then overwrite each gauge's level with its
    highest-uid winner — the step that restores uid-ordered merge
    semantics.  Returns the total number of executions absorbed.
    An empty array commits nothing and returns 0. *)
