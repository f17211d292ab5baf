type policy = Naive | Random | Near_fifo

type t = {
  initial_prob : float;
  degrade_per_alloc : float;
  watch_decay_factor : float;
  min_prob : float;
  burst_threshold : int;
  burst_window_sec : float;
  burst_prob : float;
  revive_prob : float;
  revive_period_sec : float;
  installed_halflife_sec : float;
  policy : policy;
  evidence : bool;
  combined_syscall : bool;
}

let default =
  { initial_prob = 0.5;
    degrade_per_alloc = 1e-5;
    watch_decay_factor = 0.5;
    min_prob = 1e-5;
    burst_threshold = 5_000;
    burst_window_sec = 10.0;
    burst_prob = 1e-6;
    revive_prob = 1e-4;
    revive_period_sec = 20.0;
    installed_halflife_sec = 10.0;
    policy = Near_fifo;
    evidence = true;
    combined_syscall = false }

let policy_name = function
  | Naive -> "naive"
  | Random -> "random"
  | Near_fifo -> "near-FIFO"

