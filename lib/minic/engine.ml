type t = Interp | Vm

let to_string = function Interp -> "interp" | Vm -> "vm"

let run ~engine ~machine ~tool ~program ?inputs ?app_seed ?step_limit () =
  match engine with
  | Interp -> Interp.run ~machine ~tool ~program ?inputs ?app_seed ?step_limit ()
  | Vm -> Vm.run ~machine ~tool ~program ?inputs ?app_seed ?step_limit ()

let precompile program = ignore (Compile.get program)
