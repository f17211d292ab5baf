(* A [Float] member the spec's kinds have checked. *)
let num j k = Option.get (Option.bind (Obs_json.member k j) Obs_json.to_float)
let str json k = match Obs_json.member k json with Some (`String s) -> s | _ -> ""
let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let bench_fleet =
  Schema.make "csod.bench.fleet/1"
    Schema.
      [ ("app", String); ("config", String); ("users", Int);
        ("epoch_size", Int); ("benign_frac", Float); ("domains", Int);
        ("detections", Int); ("first_catch", Nullable Object);
        ("store_contexts", Int); ("deterministic", Bool);
        ("wall_seconds_serial", Float); ("wall_seconds_parallel", Float);
        ("speedup", Float) ]

let bench_exec =
  Schema.make "csod.bench.exec/1"
    Schema.
      [ ("workload", String); ("kind", String); ("mode", String);
        ("runs", Int); ("cycles", Int); ("deterministic", Bool);
        ("interp_wall_seconds", Float); ("vm_wall_seconds", Float);
        ("interp_execs_per_sec", Float); ("vm_execs_per_sec", Float);
        ("speedup", Float) ]
    ~stream:(fun () j ->
      match
        List.find_opt
          (fun k -> num j k <= 0.)
          [ "runs"; "interp_wall_seconds"; "vm_wall_seconds";
            "interp_execs_per_sec"; "vm_execs_per_sec"; "speedup" ]
      with
      | _ when not (List.mem (str j "kind") [ "app"; "kernel" ]) ->
        fail "unknown exec workload kind %S" (str j "kind")
      | _ when not (List.mem (str j "mode") [ "serial"; "metrics" ]) ->
        fail "unknown exec mode %S" (str j "mode")
      | Some k -> fail "non-positive %s" k
      | None -> Ok ())

(* Survival rows carry the redirect tallies, the overhead row the paired
   timings. *)
let bench_respond =
  Schema.make "csod.bench.respond/1"
    Schema.[ ("metric", String); ("app", String); ("mode", String); ("runs", Int) ]
    ~stream:(fun () j ->
      let ( let* ) = Result.bind in
      let outside k hi = num j k < 0. || num j k > hi in
      match str j "metric" with
      | "survival" ->
        let* () =
          Schema.has_fields
            Schema.
              [ ("survived", Int); ("survival_rate", Float);
                ("detections", Int); ("redirected_reads", Int);
                ("redirected_writes", Int); ("escapes", Int) ]
            j
        in
        if outside "survived" (num j "runs") then fail "survived outside [0, runs]"
        else if outside "survival_rate" 1. then fail "survival_rate out of [0, 1]"
        else Ok ()
      | "overhead" ->
        let* () =
          Schema.has_fields
            Schema.
              [ ("ns_per_op", Float); ("baseline_ns_per_op", Float);
                ("overhead_frac", Float) ]
            j
        in
        if num j "baseline_ns_per_op" <= 0. then
          fail "non-positive baseline_ns_per_op"
        else Ok ()
      | m -> fail "unknown respond bench metric %S" m)

let bench_resilience =
  Schema.make "csod.bench.resilience/1"
    Schema.
      [ ("app", String); ("config", String); ("users", Int);
        ("benign_frac", Float); ("domains", Int); ("epoch_size", Int);
        ("fault_rate", Float); ("faults", String); ("detections", Int);
        ("detection_rate", Float); ("degraded_executions", Int);
        ("faults_injected", Int); ("worker_crashes", Int);
        ("store_contexts", Int); ("wall_seconds", Float) ]
    ~stream:(fun () j ->
      let r = num j "detection_rate" in
      if r < 0. || r > 1. then fail "detection_rate out of [0, 1]" else Ok ())

let bench_metrics =
  Schema.make "csod.bench.metrics/2"
    Schema.
      [ ("kind", String); ("app", String); ("config", String); ("seed", Int);
        ("detected", Bool); ("cycles", Int); ("telemetry", Object) ]

let bench_throughput =
  Schema.make "csod.bench.throughput/2"
    Schema.
      [ ("op", String); ("mode", String); ("iters", Int); ("ns_per_op", Float);
        ("ops_per_sec", Float) ]

let emit_row spec fields =
  let row = `Assoc (("schema", `String (Schema.name spec)) :: fields) in
  match Schema.conforms spec row with
  | Ok () -> print_endline (Obs_json.to_string row)
  | Error e -> invalid_arg (Printf.sprintf "%s row: %s" (Schema.name spec) e)

let all =
  [ Schema.erase Health.spec; Schema.erase Alert.spec; History.spec;
    Schema.erase Serve.status_spec;
    Schema.erase Serve.checkpoint_spec; Schema.erase (Sim.repro_spec Sim_registry.all);
    Fleet.report_spec; bench_fleet; bench_exec; bench_respond;
    bench_resilience; bench_metrics; bench_throughput ]
