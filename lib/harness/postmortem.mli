(** Post-mortem diagnosis: why a detection happened, or why a bug slipped
    through.

    [analyze] runs the {!Oracle} and a CSOD execution with the same seed
    (so the 1-based allocation index correlates the two runs even though
    tool padding shifts addresses), recording the CSOD run with a
    {!Flight_recorder}.  The verdict classifies the overflowing object's
    fate from its lifecycle records; [render] turns the whole analysis
    into the human-readable report behind [csod_run explain]. *)

type verdict =
  | Detected of string  (** detection source name, e.g. ["watchpoint"] *)
  | Coin_failed of float
      (** never watched: the sampling coin flip failed (probability at
          allocation time attached) *)
  | Outbid of float
      (** coin won, but no watchpoint slot yielded to this object *)
  | Evicted of { by : int; by_ctx : int }
      (** watched, then preempted by [by] before the overflowing access *)
  | Removed_on_free  (** watched, but freed before the overflowing access *)
  | Watched_no_trap
      (** watched through the overflow yet no trap fired (access skipped
          the guarded boundary word) *)
  | Record_dropped
      (** the ring overwrote the object's records; retry with a larger
          capacity *)
  | No_oracle of string  (** ground truth unavailable (reason attached) *)

val verdict_label : verdict -> string
(** Short stable label (["coin-failed"], ["watch-evicted"], ...) for
    tallies and machine consumption. *)

type analysis = {
  outcome : Execution.outcome;
  records : Flight_recorder.record list;  (** oldest first *)
  recorded : int;
  dropped : int;
  oracle : Oracle.overflow option;
  target_addr : int option;
      (** the overflowing object's address in the recorded run *)
  target_ctx : int option;
  target_seq : int option;
      (** the sequence number of its allocation record: the object's story
          starts there *)
  verdict : verdict;
  seed : int;
}

val analyze :
  app:Buggy_app.t ->
  config:Config.t ->
  ?input:Execution.input_choice ->
  ?seed:int ->
  ?capacity:int ->
  unit ->
  analysis
(** One oracle run plus one recorded CSOD run, both with [seed]
    (default 1).  [capacity] sizes the flight recorder (default
    {!Flight_recorder.default_capacity}). *)

val render : symbolize:(int -> string) -> analysis -> string
(** The full post-mortem: per-detection object stories, the missed-bug
    diagnosis (which coin flips failed, which eviction lost the
    watchpoint), and the overflowing context's probability timeline. *)
