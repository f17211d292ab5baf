(** Virtual cycle clock.

    All time in the simulation is counted in virtual CPU cycles.  The paper's
    mechanism has two real time dependencies — the 10-second allocation-burst
    window and the ~10-second decay of an installed watchpoint's probability
    (Sections III-B2, III-C2) — so executions must experience a consistent
    notion of elapsed time.  The clock also underlies the Figure 7 overhead
    accounting. *)

type t

val create : unit -> t
(** Fresh clock at cycle 0. *)

val advance : t -> int -> unit
(** [advance t cycles] moves time forward.  Negative values are rejected. *)

val forward : t -> int -> int
(** [forward t cycles] is {!advance} for a count its caller has already
    checked non-negative, returning the new reading: the machine's charge
    path, which checks once at its public entry points. *)

val cycles : t -> int
(** Total cycles elapsed. *)

val seconds : t -> float
(** Elapsed virtual seconds ([cycles / Cost.cycles_per_second]). *)

val reset : t -> unit
(** Rewind to cycle 0 (used between repeated executions). *)

module Region : sig
  (** Scoped cycle accounting: measures the cycles attributed to a region of
      execution, e.g. "cycles spent inside the CSOD runtime" versus "cycles
      of application work".  Regions may not overlap. *)

  type clock := t
  type t

  val start : clock -> t
  val stop : t -> int
  (** Cycles advanced on the clock since [start]. *)
end
