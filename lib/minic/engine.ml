type t = Interp | Vm | Vm_buggy_cycles

let all = [ Interp; Vm; Vm_buggy_cycles ]

let to_string = function
  | Interp -> "interp"
  | Vm -> "vm"
  | Vm_buggy_cycles -> "vm-buggy-cycles"

let run ~engine ~machine ~tool ~program ?inputs ?app_seed ?step_limit () =
  match engine with
  | Interp -> Interp.run ~machine ~tool ~program ?inputs ?app_seed ?step_limit ()
  | Vm -> Vm.run ~machine ~tool ~program ?inputs ?app_seed ?step_limit ()
  | Vm_buggy_cycles ->
    Vm.run ~buggy_cycles:true ~machine ~tool ~program ?inputs ?app_seed
      ?step_limit ()

let precompile program = ignore (Compile.get program)
