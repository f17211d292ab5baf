(** CSOD tuning parameters.

    The paper fixes these as compile-time macros (Sections III-B2, III-C2,
    IV-A) "which could be further adjusted based on the behavior of
    programs"; we expose them as a record so the ablation benchmarks can
    vary them.  {!default} is the paper's configuration. *)

type policy = Naive | Random | Near_fifo
(** Watchpoint replacement policies of Section III-C2. *)

type t = {
  initial_prob : float;
      (** Probability assigned to a never-seen calling context: 0.5 —
          "equally likely to either contain a bug or be bug-free". *)
  degrade_per_alloc : float;
      (** Absolute probability subtracted on {e every} allocation of a
          context: 0.001% = 1e-5. *)
  watch_decay_factor : float;
      (** Multiplier applied after a context is watched: 0.5. *)
  min_prob : float;
      (** Lower bound guaranteeing every context retains some chance:
          0.001% = 1e-5. *)
  burst_threshold : int;
      (** Allocation count within the burst window that triggers throttling:
          5,000. *)
  burst_window_sec : float;
      (** Length of the burst window: 10 s. *)
  burst_prob : float;
      (** Throttled probability while bursting: 0.0001% = 1e-6.  When the
          window elapses the context returns to [min_prob]. *)
  revive_prob : float;
      (** Reviving mechanism (Section IV-A): contexts stuck at [min_prob]
          are randomly boosted to 0.01% = 1e-4 ... *)
  revive_period_sec : float;
      (** ... after this much time at the floor (with a coin flip per
          allocation once eligible). *)
  installed_halflife_sec : float;
      (** An installed watchpoint's effective probability halves every this
          many seconds, so long-quiet objects become replaceable: 10 s. *)
  policy : policy;
      (** Replacement policy; the paper's headline numbers use
          [Near_fifo]. *)
  evidence : bool;
      (** Enable the evidence-based canary mechanism of Section IV-B. *)
  combined_syscall : bool;
      (** The optimization the paper proposes but does not build
          (Section V-B): fold the eight per-thread install/remove syscalls
          into one custom kernel call each way.  Off by default — it
          "requires modification of the underlying OS". *)
}

val default : t
(** The paper's configuration: near-FIFO policy, evidence on. *)

val policy_name : policy -> string
