type t = Interp | Vm

let to_string = function Interp -> "interp" | Vm -> "vm"

(* The process-wide default, set once by the CLI front-end before any
   executions run.  The compiled VM is the default; the interpreter stays
   available as the reference oracle. *)
let default = ref Vm

let set_default e = default := e
let current_default () = !default

let run ~engine ~machine ~tool ~program ?inputs ?app_seed ?step_limit () =
  match engine with
  | Interp -> Interp.run ~machine ~tool ~program ?inputs ?app_seed ?step_limit ()
  | Vm -> Vm.run ~machine ~tool ~program ?inputs ?app_seed ?step_limit ()

let precompile program = ignore (Compile.get program)
