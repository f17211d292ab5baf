(** Fleet workload model: who runs the program, with what input, when.

    The paper's deployment story assumes "a program will be executed
    repeatedly by a large number of users" (Section I) — a heterogeneous
    population, not a loop over seeds.  A workload describes that
    population deterministically: every user's execution seed and input
    choice (buggy or benign) is a pure function of the workload
    description and the user id, so a fleet simulation is reproducible
    regardless of how executions are scheduled over domains.

    Benign users matter: a crowd mostly exercises inputs that never
    overflow, and CSOD's adaptive probability decay / burst throttling
    only shows its worth under that mix.  Arrival bursts shape how many
    users show up per epoch (launch spikes vs. steady traffic), which
    stresses how quickly evidence aggregation pins a context. *)

type burst =
  | Steady     (** the same number of arrivals every epoch *)
  | Frontload  (** a launch spike: arrival rate starts doubled, then decays *)
  | Wave       (** heavy / light phases of [wave_period] epochs (diurnal traffic) *)

val burst_name : burst -> string
val burst_of_string : string -> burst option

type t = {
  users : int;          (** population size *)
  benign_frac : float;  (** fraction of users running the benign input *)
  base_seed : int;      (** user [i] executes with seed [base_seed + i - 1] *)
  burst : burst;
  wave_period : int;    (** full heavy+light cycle length, in epochs *)
}

val make :
  ?benign_frac:float ->
  ?base_seed:int ->
  ?burst:burst ->
  ?wave_period:int ->
  users:int ->
  unit ->
  t
(** Defaults: [benign_frac = 0.], [base_seed = 1], [burst = Steady],
    [wave_period = 2] (the classic alternating heavy/light epochs).
    Raises [Invalid_argument] on a negative population, a fraction
    outside [\[0, 1\]], or a period under 1. *)

val table : t Schema.field list
(** The workload as a run's meta record writes it, one member per field. *)

type user = {
  uid : int;     (** 1-based *)
  seed : int;    (** execution seed — drives the machine RNG and input jitter *)
  benign : bool; (** true: runs the overflow-free input *)
}

val user : t -> int -> user
(** [user w uid] (with [1 <= uid <= w.users]) is deterministic and
    order-independent: the benign draw comes from a per-user PRNG keyed on
    [(base_seed, uid)], never from shared generator state. *)

val rate : t -> epoch_size:int -> int -> int
(** [rate w ~epoch_size e] is the number of users the burst schedule asks
    for at epoch [e], always at least 1, uncapped by [w.users] — the
    open-ended arrival process a long-running service drives epoch by
    epoch.  The wave's heavy half-period always comes {e first}: a wave
    whose period exceeds the run length still admits its launch cohort at
    epoch 0 instead of idling through a leading trough. *)

val arrivals : t -> epoch_size:int -> int array
(** Users arriving per epoch, following [w.burst]; entries sum to
    [w.users] and (except for a trailing partial epoch) respect the mean
    rate of [epoch_size] users per epoch.  Users are assigned to epochs in
    uid order: epoch 0 gets uids [1 .. a.(0)], and so on. *)
