(** Diagnostic trace of the runtime's sampling decisions.

    Every decision the Sampling and Watchpoint Management Units take is
    streamed, when an {!Event_sink} is installed, as a structured JSONL
    event (["smu.decision"], ["wmu.replace"], ["wmu.free_removal"],
    ["trap"], ["canary.corrupt"], ["runtime.degraded"]).  Without a sink
    each trace point costs one branch, checked {e before} any field is
    built.  The CLI's [--events FILE] installs the sink — the fastest way
    to see {e why} a particular execution missed a bug: which coin flips
    failed, which watchpoint was evicted when. *)

val decision :
  watched:bool -> prob:float -> key:Alloc_ctx.key -> addr:int -> unit
(** One allocation-time sampling outcome. *)

val replaced : victim:int -> by:int -> unit
(** A policy preemption: watchpoint on [victim] handed to [by]. *)

val removed_on_free : addr:int -> unit

val trap : addr:int -> kind:string -> tid:int -> unit

val canary : addr:int -> where:string -> unit
(** A corrupted canary observed at [where] (["free"] or ["exit"]). *)

val degraded : unit -> unit
(** The runtime gave up on watchpoints (repeated fault-induced
    installation failures) and fell back to canary-only detection. *)
