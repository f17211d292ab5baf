(* Aggregated test entry point: `dune runtest`.

   Suites mirror the library structure: utilities, machine substrate,
   allocator, MiniC language, CSOD core, ASan baseline, application
   models, and the experiment harness. *)

let () =
  Alcotest.run "csod"
    [ ("prng", Test_prng.suite);
      ("util", Test_util.suite);
      ("machine", Test_machine.suite);
      ("hotpath", Test_hotpath.suite);
      ("heap", Test_heap.suite);
      ("minic", Test_minic.suite);
      ("pretty", Test_pretty.suite);
      ("obs", Test_obs.suite);
      ("core", Test_core.suite);
      ("runtime", Test_runtime.suite);
      ("sim", Test_sim.suite);
      ("prop", Test_prop.suite);
      ("descent", Test_descent.suite);
      ("asan", Test_asan.suite);
      ("apps", Test_apps.suite);
      ("fleet", Test_fleet.suite);
      ("serve", Test_serve.suite);
      ("decoders", Test_decoders.suite);
      ("faults", Test_faults.suite);
      ("harness", Test_harness.suite);
      ("respond", Test_respond.suite);
      ("misc", Test_misc.suite);
      ("limitations", Test_limitations.suite);
      ("cli", Test_cli.suite) ]
