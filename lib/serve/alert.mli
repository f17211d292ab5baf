(** Declarative alert rules over rolling-window aggregates.

    A rule names a condition on one {!Health.agg} (detection stall,
    degraded fraction, virtual straggler skew, fault budget burn, CDF
    floor) and the window size it is judged over.  The engine evaluates
    every rule at each epoch barrier and emits an event only on a {e
    transition} — fire when the condition starts holding, clear when it
    stops — carrying the window snapshot that triggered it (schema
    [csod.fleet.alert/1]).  A rule is eligible only once its window is
    full ([rows >= window]), so a 50-epoch stall rule cannot fire at
    epoch 3 of a cold start.

    Conditions read only the fold of the epoch records ({!Health.agg}),
    so alert streams are bit-identical for a given seed and schedule,
    and [csod_run replay] re-derives them offline from history alone. *)

type condition =
  | Stall                      (** no detections anywhere in the window *)
  | Degraded_above of float    (** window degraded / arrivals > limit *)
  | Skew_above of float        (** max virtual cycle-skew > limit *)
  | Fault_burn_above of float  (** (crashes + fault counters) / epoch > limit *)
  | Cdf_below of float         (** detection CDF at window end < limit *)
  | Patch_above of float       (** contexts newly convicted in window > limit *)

type rule = { name : string; window : int; cond : condition }

val to_spec : rule -> string
(** Canonical spec string, re-parseable by {!parse}. *)

val parse : string -> (rule list, string) result
(** Parse an alert spec: rules separated by commas or newlines, [#]
    comment lines ignored.  Each rule is [name[>limit|<limit][@window]]
    with names [stall], [degraded], [skew], [faults], [cdf], [patch] —
    e.g. ["stall@50,degraded>0.1@10"].  Omitted limits and windows take
    the rule's defaults ([stall@50]; [degraded>0.1@10]; [skew>3@10];
    [faults>1@10]; [cdf<0.5@10]; [patch>0@10]).  [cdf] takes [<], the
    others [>]; [stall] takes no limit.  [Error] names the offending
    token. *)

val defaults : rule list
(** The rules [parse "stall,degraded,skew"] yields — the service's
    out-of-the-box set. *)

type event = {
  rule : rule;
  epoch : int;         (** barrier at which the transition happened *)
  firing : bool;       (** [true] = fire, [false] = clear *)
  since : int;         (** epoch of the matching fire (= [epoch] on fire) *)
  window : Health.agg; (** the aggregate that triggered the transition *)
}

val event_to_json : event -> Obs_json.t
(** Schema [csod.fleet.alert/1]: spec echo, state, epochs, and the full
    window snapshot. *)

val spec : unit Schema.t
(** Per stream, each rule fires then clears in turn, a fire's [since] is
    its epoch, and the window ends at or before the event's epoch. *)

val transitions : resumed:bool -> unit -> Obs_json.t -> (unit, string) result
(** {!spec}'s stream check; in a [resumed] stream a rule may first clear. *)

type t
(** Evaluation engine: rules plus their firing state. *)

val engine : rule list -> t
val rules : t -> rule list

val observe : t -> Window.set -> epoch:int -> event list
(** Evaluate every eligible rule against the set's aggregates at this
    barrier; returns the transitions (usually none), rule order. *)

val firing : t -> (rule * int) list
(** Currently-firing rules with their fire epochs. *)
