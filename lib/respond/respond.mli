(** Active response: turning detection into survival.

    CSOD's pipeline normally ends at a report.  This layer adds two
    policies on top of the existing evidence machinery:

    - {b Failure-oblivious mode} (Rigger et al., "context-aware failure-
      oblivious computing"): a detected out-of-bounds access is redirected
      into a per-allocation shadow slab — out-of-bounds reads return
      manufactured values, out-of-bounds writes are captured in the slab
      instead of corrupting adjacent memory — and the execution continues
      to completion.  Detection reports are unchanged; only the
      consequences differ.

    - {b Code-less patching} (Zeng et al.): once fleet evidence convicts an
      allocation context (its {!Persist} hit count reaches a threshold),
      future allocations from that context are over-allocated with guard
      slack so the overflow becomes harmless — no crash, no report, and
      unconvicted contexts pay nothing.

    The module is pure policy state (mode, slab, tallies); each response
    is counted and recorded as a {!Flight_recorder} [Respond] record.  The
    runtime and the ASan tool decide when to invoke it, and the machine
    ({!Machine.squash_write} / {!Machine.override_read}) applies the
    mechanics.  None of its operations draw from any PRNG or charge the
    virtual clock, so enabling a response mode never perturbs sampling
    decisions — and with the mode [Off] the layer is never even
    constructed. *)

type mode = Off | Oblivious | Patch of int
    (** [Patch n]: convict at [n] evidence hits. *)

val default_patch_threshold : int
(** Conviction threshold when [--respond patch] gives none (3). *)

val mode_of_string : string -> (mode, string) result
(** Accepts ["off"], ["oblivious"], ["patch"], ["patch=N"] (N ≥ 1). *)

val mode_to_string : mode -> string

type source = Flight_recorder.respond_source = Watchpoint | Asan_shadow | Canary
    (** Which detector accused the access being responded to. *)

type t

val create : mode -> machine:Machine.t -> t
(** The policy state for one execution on [machine].  In [Oblivious] mode
    it arms the machine's response hooks ({!Machine.arm_respond}), routing
    squashed store values into this layer's shadow slab; the other modes
    leave the machine as it is. *)

val oblivious : t -> bool
val patch_threshold : t -> int option
(** [Some n] iff the mode is [Patch n]. *)

val redirect :
  t -> source:source -> kind:Tool.access_kind -> ctx:int * int -> obj:int ->
  addr:int -> len:int -> at:int -> unit
(** Redirect the access whose detection is currently being handled: squash
    the write into the slab at [(obj, addr - obj)], or override the read
    with the slab value (zero when never written).  Bumps the redirect
    tallies and records a [redirect-read] or [redirect-write] response
    (its [site] and [off] are [ctx]'s) at cycle [at]. *)

val record_escape :
  t -> source:source -> ctx:int * int -> addr:int -> at:int -> unit
(** A corruption that was detected {e after the fact} (corrupted canary):
    adjacent memory was already overwritten, so the execution cannot claim
    oblivious survival.  This is how a dropped trap under fault injection
    is prevented from faking a survival.  Records an [escape] of the
    object at [addr]. *)

val record_patch : t -> ctx:int * int -> addr:int -> at:int -> unit
(** A convicted context's allocation at [addr] was given guard slack;
    records a [patch]. *)

val slab_get : t -> obj:int -> off:int -> int
(** Slab lookup; 0 when that offset was never redirected to. *)

val release : t -> obj:int -> unit
(** Forget a freed object's slab bytes.  The heap recycles address ranges
    — one can even restart at the same base — and a later allocation there
    must see fresh zeros, not the dead object's redirected bytes. *)

type summary = {
  smode : mode;
  redirected_reads : int;
  redirected_writes : int;
  escapes : int;
  patched_allocs : int;
}

val summary : t -> summary

val survived : t -> bool
(** Oblivious mode with zero escapes: every detected out-of-bounds access
    was redirected before adjacent memory saw it. *)

val pp_summary : Format.formatter -> summary -> unit
