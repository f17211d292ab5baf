(** The MiniC bytecode VM.

    Executes {!Compile.code} with the same observable behaviour as the
    reference interpreter: identical virtual-cycle accounting, tool
    callback sequence, allocation contexts, app-PRNG draws, output, step
    counts, and error messages (raised as {!Interp.Runtime_error}).  The
    compiled form is cached on the program via {!Compile.get}. *)

val run :
  ?buggy_cycles:bool ->
  machine:Machine.t ->
  tool:Tool.t ->
  program:Program.t ->
  ?inputs:int array ->
  ?app_seed:int ->
  ?step_limit:int ->
  unit ->
  Interp.result
(** Same contract as {!Interp.run}, bit-identical observables, unless
    [buggy_cycles] (default false) plants a bug for the differential-testing
    net: every taken backward jump then charges one extra virtual cycle.
    The sweep must catch it, and [test/test_minic.ml] pins a repro. *)
