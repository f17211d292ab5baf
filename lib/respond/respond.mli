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
    event goes to the installed {!Event_sink}, if any, and is counted.  The
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

type source = Watchpoint | Asan_shadow | Canary
    (** Which detector accused the access being responded to. *)

type t

val create : mode -> t

val oblivious : t -> bool
val patch_threshold : t -> int option
(** [Some n] iff the mode is [Patch n]. *)

val attach : t -> Machine.t -> unit
(** Arm the machine's response hooks, routing squashed store values into
    this layer's shadow slab.  Call once at tool construction when the
    mode is not [Off]. *)

val redirect :
  t ->
  Machine.t ->
  source:source ->
  kind:Tool.access_kind ->
  site:int ->
  ctx:int * int ->
  obj:int ->
  addr:int ->
  len:int ->
  at_sec:float ->
  unit
(** Redirect the access whose detection is currently being handled: squash
    the write into the slab at [(obj, addr - obj)], or override the read
    with the slab value (zero when never written).  Records a
    [csod.respond.event/1] and bumps the redirect tallies. *)

val record_escape :
  t -> source:source -> site:int -> ctx:int * int -> addr:int -> at_sec:float -> unit
(** A corruption that was detected {e after the fact} (corrupted canary):
    adjacent memory was already overwritten, so the execution cannot claim
    oblivious survival.  This is how a dropped trap under fault injection
    is prevented from faking a survival. *)

val record_patch :
  t -> site:int -> ctx:int * int -> addr:int -> at_sec:float -> unit
(** A convicted context's allocation was given guard slack. *)

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
  events : int;  (** response events emitted *)
}

val summary : t -> summary

val survived : t -> bool
(** Oblivious mode with zero escapes: every detected out-of-bounds access
    was redirected before adjacent memory saw it. *)

val schema : string
(** ["csod.respond.event/1"]. *)

val spec : Schema.t
(** The event format: a known kind and source, and a two-int [ctx]. *)

val pp_summary : Format.formatter -> summary -> unit
