(** Tables I, III and IV: application characteristics.

    Table I is static registry data.  Table III comes from one oracle run
    per buggy application (ground-truth overflow position and census).
    Table IV replays each performance profile under the default CSOD
    configuration and reports the census plus watched-times the runtime
    observed. *)

type table1_row = { app : string; vulnerability : string; reference : string }

val table1 : unit -> table1_row list

type table3_row = {
  app : string;
  total_contexts : int;
  total_allocations : int;
  before_contexts : int;     (** census when the overflowed object was allocated *)
  before_allocations : int;
  detected_kind : string;    (** oracle-confirmed class, cross-checked with Table I *)
  ambiguous_keys : int;
      (** (call site, stack offset) pairs that reached more than one
          distinct full chain (Section III-A1 says the pair is almost
          always unique) *)
  ambiguous_allocations : int;  (** allocations under those pairs *)
}

val table3 : unit -> table3_row list
(** Raises [Failure] if any app's oracle run sees no overflow (a model
    regression). *)

type table4_row = {
  app : string;
  loc : int;
  contexts : int;        (** profile census (the paper's published value) *)
  allocations : int;
  watched_times : int;   (** measured from the CSOD runtime on the replayed stream *)
  sim_scale : int;
}

val table4 : ?progress:(string -> unit) -> unit -> table4_row list
