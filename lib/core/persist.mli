(** Persistent record of overflowing calling contexts (paper, Section IV-B).

    "At the end of the execution, all allocation calling contexts observed
    to have overflows are written to persistent storage ... in order to
    detect buffer overflow in future executions."  A store holds the
    context keys proven to overflow; a later execution passes the same
    store to its runtime, which pins those contexts at probability 100%.
    Context keys are stable across executions because code addresses are
    assigned deterministically by the loader.

    Each key additionally carries an evidence {e hit count} — how many
    detections have accused that context.  The key set drives pinning as
    before; the counts drive the code-less patching policy (a context is
    patched once its count reaches the conviction threshold).  The on-disk
    format is unchanged: counts are an in-memory, mergeable refinement, and
    a loaded file seeds every key at one hit.

    Stores live in memory (the fleet/crowdsourcing simulations share one
    per simulated user) and can be saved to and loaded from a real file
    (the CLI's behaviour, matching the paper's).  In memory a store is one
    {!Int_index} from the two ints of a key to its hit count: {!mem} on
    the allocation path, {!copy} and the merges call no generic hash. *)

type t

val create : unit -> t
val mem : t -> Alloc_ctx.key -> bool

val add : t -> Alloc_ctx.key -> unit
(** Records one piece of evidence: inserts the key if absent, and
    increments its hit count either way. *)

val hits : t -> Alloc_ctx.key -> int
(** Evidence count for the key; 0 when absent. *)

val count : t -> int
val keys : t -> Alloc_ctx.key list
(** Sorted, for deterministic output. *)

val merge : t -> t -> unit
(** [merge dst src] adds every context of [src] to [dst], {e summing} hit
    counts.  Commutative and idempotent in the resulting key {e set} — the
    fleet's epoch barriers rely on this to fold per-user stores into the
    shared one in any grouping.  [src] is untouched. *)

val copy : t -> t
(** Snapshot; the copy and the original evolve independently.  Hit counts
    are preserved. *)

val merge_delta : t -> base:t -> t -> unit
(** [merge_delta dst ~base src] folds into [dst] only the evidence [src]
    gained over [base]: for every key, [max 0 (hits src - hits base)] is
    added.  The fleet hands each execution a {!copy} of the shared store
    (hit counts included, so patch conviction sees real evidence) and
    merges the {e delta} against the epoch-start baseline back — inherited
    evidence is never counted twice. *)

val save : ?faults:Fault_injector.t -> t -> string -> unit
(** One ["callsite stack_offset"] line per context, sorted, followed by a
    [#csod.store/2] footer carrying the entry count and an FNV-1a checksum
    of the data lines.  The write is atomic: content goes to [path ^
    ".tmp"] and is renamed into place, so a reader never observes a
    half-written store.  Under fault injection ({!Fault_plan}) a
    [persist-torn] fire writes a truncated, footer-less file in place (the
    crash-mid-write the atomic path would normally prevent), and a
    [persist-enospc] fire abandons the temporary file, leaving any
    previously published store untouched. *)

type load_outcome =
  | Missing  (** no file at that path — a first run, not an empty store *)
  | Clean of int  (** intact store with this many entries (possibly 0) *)
  | Recovered of { entries : int; corrupt_lines : int }
      (** integrity failure — unparsable or empty lines, a torn
          (unterminated) final line, no footer, or a footer whose count or
          checksum disagrees; [entries] valid contexts were salvaged *)

val load_result : ?metrics:Metrics.t -> string -> t * load_outcome
(** Failure-oblivious load.  Missing file yields an empty store and
    [Missing].  Lines split by {!Lines.fold}, so an unterminated final
    line is corrupt even when it parses: a tear can cut ["12345 67"] to
    ["12345 6"], a well-formed but fabricated key.  Whitespace within a
    line is tolerated; any other line that does not hold two integers is
    skipped and counted.  Only a footer that matches the data loads
    [Clean].  A footer-less file salvages every key ([Recovered]): a tear
    on a line boundary looks the same.  A footer that disagrees salvages
    nothing: the changed line may be a well-formed key never saved.
    [metrics] counts ["persist.corrupt_lines"] and ["persist.recovered"]. *)

val load : ?metrics:Metrics.t -> string -> t
(** [fst (load_result ?metrics path)]. *)
