let default =
  [ Sim_heap.alphabet ();
    Sim_runtime.alphabet ();
    Sim_fleet.alphabet ();
    Sim_store.alphabet ();
    Sim_respond.alphabet () ]

let all =
  default
  @ [ Sim_runtime.threads_alphabet ();
      Sim_store.alphabet ~buggy_merge:true ();
      Sim_fleet.alphabet ~plant:true ();
      Sim_respond.alphabet ~plant:true () ]

let find name = Sim.find all name
let names = List.map Sim.name_of all
