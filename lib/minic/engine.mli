(** Execution-engine selection.

    Two engines execute MiniC programs: the AST-walking interpreter
    ({!Interp}, the reference semantics) and the bytecode VM ({!Vm},
    compiled via {!Compile}, several times faster).  Both present the
    identical observable behaviour — virtual cycles, allocation/free
    stream, tool callbacks, PRNG draws, output, errors — so callers pick
    purely on speed versus pedigree.  The golden corpus and the
    differential sweep in the test suite enforce the equivalence. *)

type t = Interp | Vm | Vm_buggy_cycles
(** [Vm_buggy_cycles] is the VM with a planted bug, for the
    differential-testing net (see {!Vm.run}). *)

val all : t list

val to_string : t -> string
(** ["interp"], ["vm"], ["vm-buggy-cycles"]: the [--engine] values. *)

val run :
  engine:t ->
  machine:Machine.t ->
  tool:Tool.t ->
  program:Program.t ->
  ?inputs:int array ->
  ?app_seed:int ->
  ?step_limit:int ->
  unit ->
  Interp.result
(** Execute [main] on the chosen engine.  Same contract as {!Interp.run};
    both engines raise {!Interp.Runtime_error} for dynamic faults. *)

val precompile : Program.t -> unit
(** Force the program's bytecode into {!Program}'s compiled-code cache.
    Call before fanning executions out across domains so pool workers
    never race on the (unsynchronized) cache slot. *)
