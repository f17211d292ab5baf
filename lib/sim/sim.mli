(** Deterministic simulation-test harness with automatic shrinking.

    A CoreSim-style layer over any stack layer of the CSOD simulation: an
    {e alphabet} declares the operations a system under test understands —
    weight, precondition, parameter generator, effect — plus a stepwise
    invariant; the engine draws operation sequences from a dedicated PRNG
    stream ({!Prng.fork}ed off the run seed, never the system's own),
    checks the invariant after every step, and on failure {e shrinks} the
    sequence to a minimal reproducing operation list by greedy chunk
    removal and parameter minimization.

    Every execution is deterministic: the recorded sequence carries the
    concrete parameters of each operation, so a counterexample replays
    without the generation stream, and a replay hash — folded over the op
    names, arguments and per-step state digests — certifies that a replay
    re-executed bit-identically.  Counterexamples pretty-print as one
    [csod.sim.repro/1] JSONL record and as a [csod_run sim --replay FILE]
    invocation. *)

(** {1 Sequences} *)

type step = {
  op : string;        (** operation name, from the alphabet *)
  args : int list;    (** concrete parameters, as generated *)
}

(** {1 Alphabets} *)

type 's op = {
  op_name : string;
  weight : int;  (** relative selection weight (>= 1) *)
  pre : 's -> bool;
      (** applicability given the current state; inapplicable ops are never
          generated and are {e skipped} during replay (shrinking can remove
          the op that established a precondition) *)
  gen : 's -> Prng.t -> int list;
      (** draw concrete parameters from the {e generation} stream; must not
          touch the system under test *)
  apply : 's -> int list -> (unit, string) result;
      (** perform the operation; [Error] is an operation-level invariant
          violation (e.g. an accepted double free).  Must consume no
          randomness other than the system's own internal streams, and must
          interpret out-of-range arguments totally (clamp or reduce), so
          that shrinking arguments never produces an ill-formed call. *)
}

type 's alphabet = {
  name : string;
  ops : 's op list;
  init : seed:int -> 's;
      (** fresh system-under-test + model, fully determined by [seed] *)
  check : 's -> string option;
      (** stepwise invariant, run after every applied op; [Some msg] is a
          violation *)
  digest : 's -> int64;
      (** cheap order-independent state fingerprint, folded into the replay
          hash after every step — what makes "replays bit-identically"
          checkable *)
  teardown : 's -> unit;  (** release pooled resources, temp files *)
}

type packed = Packed : 's alphabet -> packed

val name_of : packed -> string
val find : packed list -> string -> packed option

val digest_ints : int list -> int64
(** The alphabets' common digest opening: the ints folded, in order, by an
    FNV-1a style multiply from a fixed seed.  An alphabet's [digest] folds
    its counters here and combines the result with any order-independent
    fold of its own. *)

(** {1 Counterexamples} *)

type failure = {
  alphabet : string;
  seed : int;            (** run seed: [init ~seed] + the generation stream *)
  steps : step list;     (** the reproducing sequence *)
  failed_at : int;       (** index into [steps] of the violating op *)
  message : string;      (** invariant violation *)
  replay_hash : int64;   (** trace fold: ops, args, digests, message *)
  shrunk_from : int;     (** length of the originally generated sequence *)
}

type exec_result = {
  failed : (int * string) option;  (** (step index, message) *)
  hash : int64;
  applied : int;  (** steps whose precondition held *)
}

val exec : 's alphabet -> seed:int -> step list -> exec_result
(** Re-execute a recorded sequence: init, apply each step (skipping those
    whose precondition does not hold), check after every step, stop at the
    first violation.  Pure in [seed] and [steps]. *)

val run :
  ?shrink_failures:bool ->
  ?max_failures:int ->
  's alphabet ->
  seed:int ->
  runs:int ->
  ops:int ->
  failure list
(** A sweep: [runs] sequences on seeds [seed, seed+1, ...], each failure
    shrunk (default true).  Stops early after [max_failures] (default 1).
    Shrinking is ddmin-style chunk removal to a 1-removal fixpoint, then
    per-argument minimization (0, halving, decrement), each candidate
    re-executed deterministically; a candidate is kept if {e any}
    invariant still fails, within 4000 re-executions. *)

val run_packed :
  ?shrink_failures:bool ->
  ?max_failures:int ->
  packed ->
  seed:int ->
  runs:int ->
  ops:int ->
  failure list

(** {1 Repros} *)

val schema : string
(** ["csod.sim.repro/1"]. *)

val to_json : failure -> Obs_json.t

val repro_spec : packed list -> failure Schema.t
(** The repro format and its decoder, which [csod_run sim --replay] reads
    with: [Error] unless every op's [args] are ints, the sequence is
    non-empty, [failed_at] indexes it, [replay_hash] is 16 lowercase hex
    digits, [shrunk_from] is at least the op count, and every op is one of
    its alphabet among these. *)

val repro_line : failure -> string
(** The counterexample as one [csod.sim.repro/1] JSONL line. *)

val summary : failure -> string
(** Human-readable rendering: the op list, the violation, the replay
    command. *)

val replay : packed list -> failure -> (string, string) result
(** Re-execute a parsed repro against its alphabet.  [Ok] iff the sequence
    fails at the recorded step with the recorded message {e and} the replay
    hash matches — same failure, same trace, no drift.  The string reports
    what matched or how the replay diverged. *)
