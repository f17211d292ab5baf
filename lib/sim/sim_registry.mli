(** Registry of every simulation alphabet the harness ships.

    {!default} is the sweep set (the five real-system alphabets a bare
    [csod_run sim] runs); {!all} additionally exposes ["runtime-threads"]
    (the runtime with thread spawn and exit, swept by name in [make sim])
    and the planted-bug variants (["store-buggy-merge"],
    ["fleet-evidence-bug"], ["respond-lost-conviction"]) so the shrinking
    regression tests and the CLI can reach them by explicit name, while
    the CI sweep never trips over a bug that was planted on purpose. *)

val default : Sim.packed list
(** ["heap"; "runtime"; "fleet"; "store"; "respond"] — every alphabet
    expected to hold its invariants. *)

val all : Sim.packed list
(** {!default}, then ["runtime-threads"], then the planted-bug
    alphabets. *)

val find : string -> Sim.packed option
(** Look up any alphabet (planted ones included) by registered name. *)

val names : string list
(** Registered names of {!all}, in registry order. *)
