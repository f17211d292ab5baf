(** Section V-A2: evidence-based over-write detection, and the
    crowdsourcing/fleet story of Section I.

    The paper's claim: with the canary mechanism on, every buffer
    over-write application "can always [be detected] during their second
    execution, if missed in the first" — the first run's corrupted canary
    pins the context in persistent storage, and the second run watches it
    at probability 1.  {!second_execution} verifies that per app.

    {!fleet} generalizes it: a population of users runs the same buggy
    program repeatedly, sharing CSOD's persisted context store the way a
    crowd-sourced deployment would aggregate reports; it returns the
    execution index at which the bug was first caught by a watchpoint. *)

type row = {
  app : string;
  vuln : string;
  first_run_watchpoint : bool;   (** watchpoint caught it on run 1 *)
  first_run_evidence : bool;     (** canary evidence observed on run 1 *)
  second_run_watchpoint : bool;  (** watchpoint caught it on run 2 (the claim) *)
}

val second_execution : ?seed:int -> unit -> row list
(** Over-write applications only (canaries cannot witness over-reads). *)

val fleet :
  app:Buggy_app.t -> users:int -> ?policy:Params.policy -> unit ->
  (int * Report.source) option
(** Run up to [users] executions with a shared store; returns the 1-based
    execution at which the overflow was first detected and how.  The
    fleet's sequential path: {!Fleet.step} one arrival per epoch on one
    domain (user [uid] runs seed [uid] on the buggy input), so each
    execution starts from all earlier evidence; for a parallel population
    with epoch-based aggregation use {!Fleet.run}. *)
