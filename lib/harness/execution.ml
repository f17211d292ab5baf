type input_choice = Buggy | Benign

type outcome = {
  detected : bool;
  reports : Report.t list;
  watchpoint_reports : Report.t list;
  asan_detections : Asan.detection list;
  stats : Runtime.stats option;
  cycles : int;
  output : string;
  crashed : string option;
  degraded : bool;
  faults : Fault_injector.t option;
  telemetry : Telemetry.t;
  respond : Respond.summary option;
  survived : bool;
      (* oblivious mode only: ran to completion with every detected
         out-of-bounds access redirected and no corruption escaping *)
}

let instrumented_pred (app : Buggy_app.t) program site =
  match Program.module_of_addr program site with
  | Some m -> List.mem m app.Buggy_app.instrumented_modules
  | None -> false

let run_program ~program ~inputs ?instrumented ~config ?(engine = Engine.Vm)
    ?(seed = 1) ?store ?(respond = Respond.Off) ?(snapshot_cycles = 0) ?faults
    () =
  (* One injector per execution, salted by the execution seed: a fleet of
     executions sharing one plan still faults each user differently, and
     identically for any domain count. *)
  let injector =
    Option.map (fun plan -> Fault_injector.create ~plan ~salt:seed) faults
  in
  let machine = Machine.create ~seed ?faults:injector () in
  if snapshot_cycles > 0 then
    Telemetry.set_snapshot_interval (Machine.telemetry machine)
      ~cycles:snapshot_cycles;
  let heap = Heap.create machine in
  let inst =
    Config.instantiate config ~machine ~heap ?instrumented ?store ~respond
      ~seed ()
  in
  let output = Buffer.create 64 in
  let crashed =
    try
      let r =
        Engine.run ~engine ~machine ~tool:inst.Config.tool ~program ~inputs
          ~app_seed:seed ()
      in
      Buffer.add_string output r.Interp.output;
      None
    with
    | Interp.Runtime_error (msg, loc) ->
      Some (Printf.sprintf "%s: %s" (Srcloc.to_string loc) msg)
    | Heap.Error msg -> Some msg
  in
  (* Termination handling runs regardless of how the program exited. *)
  inst.Config.finish ();
  let reports =
    match inst.Config.csod with Some rt -> Runtime.detections rt | None -> []
  in
  let outcome = { detected = inst.Config.detected ();
    reports;
    watchpoint_reports =
      List.filter (fun r -> r.Report.source = Report.Watchpoint) reports;
    asan_detections =
      (match inst.Config.asan with Some a -> Asan.detections a | None -> []);
    stats = Option.map Runtime.stats inst.Config.csod;
    cycles = Clock.cycles (Machine.clock machine);
    output = Buffer.contents output;
    crashed;
    degraded =
      (match inst.Config.csod with
      | Some rt -> Runtime.degraded rt
      | None -> false);
    faults = injector;
    telemetry = Machine.telemetry machine;
    respond = Option.map Respond.summary inst.Config.respond;
    survived =
      (match inst.Config.respond with
      | Some r -> Respond.survived r && crashed = None
      | None -> false) }
  in
  (* All outcome fields are computed; hand the chunk storage back to the
     domain-local page pool for the next execution. *)
  Sparse_mem.release (Machine.mem machine);
  outcome

let run ~(app : Buggy_app.t) ~config ?engine ?(input = Buggy) ?seed ?store
    ?respond ?snapshot_cycles ?faults () =
  let program = Buggy_app.program app in
  let inputs =
    match input with Buggy -> app.Buggy_app.buggy_inputs | Benign -> app.Buggy_app.benign_inputs
  in
  run_program ~program ~inputs ~instrumented:(instrumented_pred app program)
    ~config ?engine ?seed ?store ?respond ?snapshot_cycles ?faults ()

let executor ~app ~config ?(engine = Engine.Vm) ?input_of
    ?(respond = Respond.Off) ?faults () =
  (* Force the program memo (and, for the VM, the bytecode cache) now:
     fleet workers may call the executor from several domains at once, and
     neither memo table is synchronized. *)
  let program = Buggy_app.program app in
  if engine <> Engine.Interp then Engine.precompile program;
  let input_of =
    match input_of with
    | Some f -> f
    | None -> fun (u : Workload.user) -> if u.Workload.benign then Benign else Buggy
  in
  fun ~(user : Workload.user) ~store ->
    let o =
      run ~app ~config ~engine ~input:(input_of user) ~seed:user.Workload.seed
        ~store ~respond ?faults ()
    in
    { Fleet.payload = o;
      detected = o.detected;
      source =
        (match o.reports with r :: _ -> Some r.Report.source | [] -> None);
      cycles = o.cycles;
      telemetry = Some o.telemetry;
      degraded = o.degraded }

let run_until_detected ~app ~config ~max_runs =
  let rec go seed =
    if seed > max_runs then None
    else
      let o = run ~app ~config ~seed ~store:(Persist.create ()) () in
      if o.detected then Some (seed, o) else go (seed + 1)
  in
  go 1

let symbolizer app = Program.symbolize (Buggy_app.program app)
