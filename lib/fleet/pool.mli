(** Domain pool: order-preserving parallel map over OCaml 5 domains.

    The fleet's unit of parallelism is one user execution — independent
    by construction (own machine, own heap, own PRNG, own store copy) —
    so the pool only needs to hand out indices and collect results.  Work
    is distributed dynamically (an atomic next-index counter), which
    load-balances the heavy-tailed execution times of heterogeneous apps;
    results land in their input slot, so the output is identical for any
    domain count and any interleaving. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()] — the runtime's estimate of
    useful hardware parallelism. *)

type worker = {
  slot : int;  (** 0 is the calling domain; 1.. are spawned *)
  mutable executed : int;  (** chunks this worker completed *)
  mutable busy_seconds : float;  (** wall time spent inside [f] *)
  mutable last_stop : float;
      (** absolute [Unix.gettimeofday] when this worker's last chunk
          finished; [0.0] if it ran none.  The gap to the barrier is the
          worker's idle wait. *)
  mutable spans : (int * float * float) list;
      (** with [record_spans]: [(index, start, stop)] per chunk, absolute
          wall seconds, most recent first *)
}
(** Per-worker load statistics for one map call.  Each record is written
    by exactly one domain during the parallel section and is safe to read
    once the call returns. *)

val map_stats :
  ?faults:Fault_injector.t ->
  ?index_base:int ->
  ?record_spans:bool ->
  domains:int ->
  int ->
  f:(int -> 'a) ->
  'a array * worker array
(** [map_stats ~domains n ~f] is {!map} plus each worker's load
    statistics, in slot order — the width is [min domains (max n 1)].
    Chunks degraded to the caller by a double crash, and all chunks of a
    serial ([width = 1]) map, are accounted to slot 0.  [record_spans]
    (default false) additionally captures a per-chunk [(index, start,
    stop)] span on each worker. *)

val map :
  ?faults:Fault_injector.t ->
  ?index_base:int ->
  domains:int -> int -> f:(int -> 'a) -> 'a array
(** [map ~domains n ~f] is [Array.init n f] computed on [min domains n]
    domains ([domains = 1] runs inline, spawning nothing).  [f] must not
    touch shared mutable state; it may be called from any domain, in any
    order, but exactly once per index.  If any call raises, the first
    exception (by completion order) is re-raised in the caller after the
    remaining work has been cancelled and {e all} spawned domains joined —
    a failing spawn or worker never leaks a running domain.  Raises
    [Invalid_argument] if [domains < 1] or [n < 0].

    [faults] injects deterministic worker crashes ({!Fault_plan}'s
    [worker-crash] point): a crashed chunk is requeued once, and if the
    retry crashes too it is computed serially in the calling domain, so
    the result array is bit-identical to an unfaulted map for any domain
    count.  [index_base] (default 0) offsets chunk indices so successive
    maps over one stream (the fleet's epochs) draw distinct faults;
    [worker-crash\@N] one-shots name the global chunk index. *)

val timed : (unit -> 'a) -> 'a * float
(** Result plus wall-clock seconds — wall, not CPU, so parallel speedups
    are visible. *)
