(* csod_run: command-line front end to the CSOD simulation.

     csod_run list                         enumerate the bundled buggy apps
     csod_run run heartbleed               one execution under CSOD
     csod_run run mysql --policy random --seed 7 --runs 20
     csod_run run libtiff --tool asan      compare against the ASan model
     csod_run fleet zziplib --users 1000 --domains 4 --epoch 32
                                           parallel fleet simulation with
                                           epoch-based evidence aggregation
     csod_run exec prog.mc --input 3 --input 9
                                           run your own MiniC program

   The persistent store of overflowing contexts can be saved/loaded with
   --store FILE, mirroring how the paper's runtime carries evidence across
   executions. *)

open Cmdliner

let policy_conv =
  let parse = function
    | "naive" -> Ok Params.Naive
    | "random" -> Ok Params.Random
    | "near-fifo" | "nearfifo" | "fifo" -> Ok Params.Near_fifo
    | s -> Error (`Msg (Printf.sprintf "unknown policy %S (naive|random|near-fifo)" s))
  in
  let print ppf p = Fmt.string ppf (Params.policy_name p) in
  Arg.conv (parse, print)

let tool_conv =
  let parse = function
    | "csod" -> Ok `Csod
    | "asan" -> Ok `Asan
    | "none" | "baseline" -> Ok `None
    | s -> Error (`Msg (Printf.sprintf "unknown tool %S (csod|asan|none)" s))
  in
  let print ppf t =
    Fmt.string ppf (match t with `Csod -> "csod" | `Asan -> "asan" | `None -> "none")
  in
  Arg.conv (parse, print)

let engine_conv =
  let parse = function
    | "interp" -> Ok `Interp
    | "vm" -> Ok `Vm
    | "vm-buggy-cycles" -> Ok `Vm_buggy
    | s ->
      Error
        (`Msg (Printf.sprintf "unknown engine %S (interp|vm|vm-buggy-cycles)" s))
  in
  let print ppf e =
    Fmt.string ppf
      (match e with
      | `Interp -> "interp"
      | `Vm -> "vm"
      | `Vm_buggy -> "vm-buggy-cycles")
  in
  Arg.conv (parse, print)

(* Resolve --engine into the engine a command passes as [~engine].
   vm-buggy-cycles is the planted miscounting bug kept around for the
   differential-testing net — a live demonstration that the golden pins
   and the sweep catch a one-cycle divergence. *)
let apply_engine e =
  Vm.buggy_cycles := e = `Vm_buggy;
  match e with `Interp -> Engine.Interp | `Vm | `Vm_buggy -> Engine.Vm

(* Shared options *)
let engine_arg =
  Arg.(value & opt engine_conv `Vm
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"MiniC execution engine: $(b,vm) (default — compiled \
                 bytecode, several times faster), $(b,interp) (the \
                 reference AST interpreter), or $(b,vm-buggy-cycles) (the \
                 VM with a deliberately planted cycle-miscounting bug, for \
                 exercising the differential-testing net).  Both real \
                 engines are observably bit-identical: same virtual \
                 cycles, detections, output and PRNG stream.")

let policy_arg =
  Arg.(value & opt policy_conv Params.Near_fifo
       & info [ "policy" ] ~docv:"POLICY" ~doc:"Watchpoint replacement policy.")

let tool_arg =
  Arg.(value & opt tool_conv `Csod
       & info [ "tool" ] ~docv:"TOOL" ~doc:"Detection tool to run under.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Execution seed.")

let runs_arg =
  Arg.(value & opt int 1 & info [ "runs" ] ~docv:"N" ~doc:"Number of executions.")

let no_evidence_arg =
  Arg.(value & flag & info [ "no-evidence" ] ~doc:"Disable the canary mechanism.")

let benign_arg =
  Arg.(value & flag & info [ "benign" ] ~doc:"Use the overflow-free input.")

let store_arg =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"FILE"
           ~doc:"Load/save the persistent store of overflowing contexts.")

let faults_conv =
  let parse s =
    match Fault_plan.of_string s with Ok p -> Ok p | Error m -> Error (`Msg m)
  in
  let print ppf p = Fmt.string ppf (Fault_plan.to_string p) in
  Arg.conv (parse, print)

let faults_arg =
  Arg.(value & opt (some faults_conv) None
       & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Deterministic fault injection plan, e.g. \
                 $(b,seed=7,ebusy=0.25,trap-drop=0.1,persist-torn@0).  \
                 Points: ebusy, eacces (perf_event_open failures), \
                 trap-drop, trap-delay (SIGTRAP delivery), persist-torn, \
                 persist-enospc (store writes), worker-crash (fleet pool).  \
                 $(i,point)=$(i,RATE) fails that fraction of opportunities; \
                 $(i,point)@$(i,T) fails once at virtual second T \
                 (worker-crash@N: chunk index N).  Faults draw from their \
                 own PRNG stream, so a plan of $(b,none) is bit-identical \
                 to no plan.")

let respond_conv =
  let parse s =
    match Respond.mode_of_string s with
    | Ok m -> Ok m
    | Error m -> Error (`Msg m)
  in
  let print ppf m = Fmt.string ppf (Respond.mode_to_string m) in
  Arg.conv (parse, print)

let respond_arg =
  Arg.(value & opt respond_conv Respond.Off
       & info [ "respond" ] ~docv:"MODE"
           ~doc:"Active response to detected overflows: $(b,off) (default — \
                 report only), $(b,oblivious) (failure-oblivious execution: \
                 out-of-bounds writes land in a per-allocation shadow slab, \
                 out-of-bounds reads return manufactured values, the program \
                 keeps running), or $(b,patch)[=$(i,N)] (code-less patching: \
                 once a context has accumulated $(i,N) evidence hits — \
                 default 3 — its allocation sites are over-allocated and \
                 redzoned so the overflow becomes harmless).")

(* Telemetry options *)
let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print the metrics registry and per-phase cycle attribution \
                 after the run.")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Print the per-phase cycle-attribution table after the run.")

let metrics_json_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-json" ] ~docv:"FILE"
           ~doc:"Write the full telemetry dump (counters, gauges, histograms, \
                 per-phase cycles) as JSON to $(docv) ($(b,-) for stdout).")

let events_arg =
  Arg.(value & opt (some string) None
       & info [ "events" ] ~docv:"FILE"
           ~doc:"Stream the flight recorder's lifecycle records (allocations, \
                 sampling decisions, watchpoint installs/evictions, traps, \
                 canary checks, detections, probability changes, phases) and \
                 periodic snapshots as JSONL to $(docv) ($(b,-) for stdout).  \
                 Implies a recorder.")

let snapshot_arg =
  Arg.(value & opt (some float) None
       & info [ "snapshot-sec" ] ~docv:"SECS"
           ~doc:"Emit a telemetry snapshot event every $(docv) of virtual time \
                 (requires $(b,--events)).")

let snapshot_cycles_of = function
  | None -> 0
  | Some sec ->
    if sec <= 0.0 then 0
    else int_of_float (sec *. float_of_int Cost.cycles_per_second)

(* Flight recorder options *)
let recorder_capacity_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > Flight_recorder.max_capacity ->
      Error
        (`Msg
           (Printf.sprintf "expected at most %d records (the recorder's bound), got %S"
              Flight_recorder.max_capacity s))
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let flight_arg =
  Arg.(value
       & opt ~vopt:(Some Flight_recorder.default_capacity) (some recorder_capacity_conv)
           None
       & info [ "flight-recorder" ] ~docv:"N"
           ~doc:(Printf.sprintf
                   "Record the last $(docv) lifecycle events (allocations, \
                    sampling decisions, watchpoint installs/evictions, traps, \
                    canary checks, probability changes) in an in-memory ring; \
                    defaults to %d records when $(docv) is omitted, and is at \
                    most %d."
                   Flight_recorder.default_capacity Flight_recorder.max_capacity))

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the recorded execution as Chrome trace-event JSON to \
                 $(docv) ($(b,-) for stdout) — open it in chrome://tracing or \
                 ui.perfetto.dev.  Implies $(b,--flight-recorder).")

(* [--trace-out] and [--events] read the recorder, so they imply one. *)
let recorder_capacity ~flight ~trace_out ~events =
  match flight with
  | Some n -> Some n
  | None when trace_out <> None || events <> None ->
    Some Flight_recorder.default_capacity
  | None -> None

let write_trace file records =
  let s =
    Trace_export.to_string ~cycles_per_second:Cost.cycles_per_second records
  in
  match file with
  | "-" ->
    print_string s;
    print_newline ()
  | file ->
    Out_channel.with_open_text file (fun oc ->
        output_string oc s;
        output_char oc '\n');
    Printf.printf "trace written to %s\n" file

(* The recorder's summary line, and its trace if [--trace-out] asked. *)
let print_recording ~trace_out r =
  Printf.printf "flight recorder: %d records kept (%d emitted, %d overwritten)\n"
    (Flight_recorder.recorded r - Flight_recorder.dropped r)
    (Flight_recorder.recorded r) (Flight_recorder.dropped r);
  Option.iter (fun file -> write_trace file (Flight_recorder.records r)) trace_out

(* Run [f] with a JSONL event sink streaming to [file], if one was asked
   for. *)
let with_events file f =
  match file with
  | None -> f ()
  | Some "-" ->
    Event_sink.install (Event_sink.to_channel stdout);
    Fun.protect
      ~finally:(fun () -> Event_sink.uninstall (); flush stdout)
      f
  | Some file ->
    Out_channel.with_open_text file (fun oc ->
        Event_sink.install (Event_sink.to_channel oc);
        Fun.protect ~finally:Event_sink.uninstall f)

let emit_telemetry ~metrics ~profile ~metrics_json tele ~cycles =
  if metrics then print_string (Telemetry.summary tele ~total_cycles:cycles)
  else if profile then print_string (Telemetry.profile_table tele ~total_cycles:cycles);
  if metrics || profile then print_newline ();
  match metrics_json with
  | None -> ()
  | Some "-" -> print_endline (Telemetry.json_string tele ~total_cycles:cycles)
  | Some file ->
    Out_channel.with_open_text file (fun oc ->
        output_string oc (Telemetry.json_string tele ~total_cycles:cycles);
        output_char oc '\n')

let config_of ~tool ~policy ~no_evidence =
  match tool with
  | `Csod -> Config.csod_with_policy policy ~evidence:(not no_evidence)
  | `Asan -> Config.asan_min_redzone
  | `None -> Config.Baseline

let load_store = function
  | None -> Persist.create ()
  | Some file -> Persist.load file

let save_store ?faults store = function
  | None -> ()
  | Some file -> Persist.save ?faults store file

let print_fault_summary = function
  | None -> ()
  | Some inj -> Printf.printf "faults: %s\n" (Fault_injector.summary inj)

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun (a : Buggy_app.t) ->
        Printf.printf "%-12s %-10s %s\n" a.Buggy_app.name
          (Report.kind_name a.Buggy_app.vuln)
          a.Buggy_app.reference)
      (Buggy_app.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled buggy applications.")
    Term.(const run $ const ())

(* ---- run ---- *)

let print_outcome ~symbolize (o : Execution.outcome) =
  (match o.Execution.crashed with
  | Some msg -> Printf.printf "! program fault: %s\n" msg
  | None -> ());
  if o.Execution.output <> "" then Printf.printf "--- program output ---\n%s" o.Execution.output;
  if o.Execution.reports = [] && o.Execution.asan_detections = [] then
    Printf.printf "no overflow detected in this execution\n"
  else begin
    List.iter
      (fun r ->
        Printf.printf "[%s]\n%s\n" (Report.source_name r.Report.source)
          (Report.format ~symbolize r))
      o.Execution.reports;
    List.iter
      (fun (d : Asan.detection) ->
        Printf.printf "[asan] heap-buffer-overflow %s at 0x%x (site %s)\n"
          (match d.Asan.kind with Tool.Read -> "READ" | Tool.Write -> "WRITE")
          d.Asan.addr
          (symbolize d.Asan.site))
      o.Execution.asan_detections
  end;
  (match o.Execution.stats with
  | Some s ->
    Printf.printf
      "stats: contexts=%d allocations=%d watched=%d traps=%d canary-checks=%d\n"
      s.Runtime.contexts s.Runtime.allocations s.Runtime.watched_times
      s.Runtime.traps s.Runtime.canary_checks
  | None -> ());
  print_fault_summary o.Execution.faults;
  (match o.Execution.respond with
  | Some s when s.Respond.smode <> Respond.Off ->
    Printf.printf "respond: %s\n" (Format.asprintf "%a" Respond.pp_summary s);
    if s.Respond.smode = Respond.Oblivious then
      Printf.printf
        (if o.Execution.survived then
           "survived: execution ran to completion with every detected \
            out-of-bounds access redirected\n"
         else "not survived\n")
  | _ -> ());
  if o.Execution.degraded then
    Printf.printf
      "! degraded: watchpoint installation kept failing; fell back to \
       canary-only detection\n"

let run_cmd =
  let app_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"APP" ~doc:"Application name (see $(b,list)).")
  in
  let run name engine tool policy no_evidence benign seed runs store_file
      faults respond metrics profile metrics_json events snapshot_sec flight
      trace_out =
    let engine = apply_engine engine in
    match Buggy_app.by_name name with
    | None ->
      Printf.eprintf "unknown application %S; try 'csod_run list'\n" name;
      exit 1
    | Some app ->
      let config = config_of ~tool ~policy ~no_evidence in
      let store = load_store store_file in
      let input = if benign then Execution.Benign else Execution.Buggy in
      let snapshot_cycles = snapshot_cycles_of snapshot_sec in
      let cap = recorder_capacity ~flight ~trace_out ~events in
      let detected = ref 0 in
      let survived = ref 0 in
      let last = ref None in
      let last_rec = ref None in
      with_events events (fun () ->
          for s = seed to seed + runs - 1 do
            let execute () =
              Execution.run ~app ~config ~engine ~input ~seed:s ~store
                ~respond ~snapshot_cycles ?faults ()
            in
            let o =
              match cap with
              | None -> execute ()
              | Some capacity ->
                (* A fresh recorder per execution so the kept recording is
                   one coherent run, not a splice. *)
                let r = Flight_recorder.create ~capacity () in
                last_rec := Some r;
                Flight_recorder.with_recorder r execute
            in
            if runs = 1 then print_outcome ~symbolize:(Execution.symbolizer app) o;
            if o.Execution.detected then incr detected;
            if o.Execution.survived then incr survived;
            last := Some o
          done);
      if runs > 1 then begin
        Printf.printf "%s: detected in %d/%d executions (%s)\n" app.Buggy_app.name
          !detected runs (Config.label config);
        if respond = Respond.Oblivious then
          Printf.printf "%s: survived %d/%d executions under oblivious mode\n"
            app.Buggy_app.name !survived runs;
        match !last with
        | Some o ->
          print_fault_summary o.Execution.faults;
          if o.Execution.degraded then
            Printf.printf "(final execution degraded to canary-only mode)\n"
        | None -> ()
      end;
      (match !last with
      | Some o ->
        (* With --runs > 1 the telemetry shown is the final execution's:
           each execution runs on a fresh machine, so registries are not
           carried across runs. *)
        if (metrics || profile) && runs > 1 then
          Printf.printf "(telemetry of the final execution, seed %d)\n"
            (seed + runs - 1);
        emit_telemetry ~metrics ~profile ~metrics_json o.Execution.telemetry
          ~cycles:o.Execution.cycles
      | None -> ());
      (* A recorder implied only by --events leaves stdout as it was. *)
      (match !last_rec with
      | Some r when flight <> None || trace_out <> None ->
        if runs > 1 then
          Printf.printf "(flight recording of the final execution, seed %d)\n"
            (seed + runs - 1);
        print_recording ~trace_out r
      | _ -> ());
      save_store
        ?faults:(match !last with Some o -> o.Execution.faults | None -> None)
        store store_file
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a bundled buggy application under a detection tool.")
    Term.(const run $ app_arg $ engine_arg $ tool_arg $ policy_arg $ no_evidence_arg $ benign_arg
          $ seed_arg $ runs_arg $ store_arg $ faults_arg $ respond_arg
          $ metrics_arg $ profile_arg $ metrics_json_arg $ events_arg
          $ snapshot_arg $ flight_arg $ trace_out_arg)

(* ---- explain: post-mortem diagnosis ---- *)

let explain_cmd =
  let app_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"APP" ~doc:"Application name (see $(b,list)).")
  in
  let run name policy no_evidence benign seed runs flight trace_out =
    match Buggy_app.by_name name with
    | None ->
      Printf.eprintf "unknown application %S; try 'csod_run list'\n" name;
      exit 1
    | Some app ->
      let config = Config.csod_with_policy policy ~evidence:(not no_evidence) in
      let input = if benign then Execution.Benign else Execution.Buggy in
      let capacity =
        Option.value flight ~default:Flight_recorder.default_capacity
      in
      let a = Postmortem.analyze ~app ~config ~input ~seed ~capacity () in
      Printf.printf "%s, %s, seed %d\n" app.Buggy_app.name (Config.label config)
        seed;
      print_string (Postmortem.render ~symbolize:(Execution.symbolizer app) a);
      (match trace_out with
      | Some file -> write_trace file a.Postmortem.records
      | None -> ());
      if runs > 1 then begin
        Printf.printf "\n=== miss attribution over %d runs (seeds %d..%d) ===\n"
          runs seed (seed + runs - 1);
        let tally =
          Effectiveness.miss_attribution ~app ~config ~runs ~from_seed:seed ()
        in
        List.iter
          (fun (label, n) ->
            Printf.printf "  %-24s %5d  (%.1f%%)\n" label n
              (100.0 *. float_of_int n /. float_of_int runs))
          tally
      end
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Post-mortem diagnosis: run an app under CSOD with a flight \
             recorder plus the ground-truth oracle, and explain why the bug \
             was detected or missed (failed coin flips, lost watchpoints, \
             probability timeline).  With $(b,--runs) N, also tally the \
             verdicts across N seeds.")
    Term.(const run $ app_arg $ policy_arg $ no_evidence_arg $ benign_arg
          $ seed_arg $ runs_arg $ flight_arg $ trace_out_arg)

(* ---- fleet ---- *)

let burst_conv =
  let parse s =
    match Workload.burst_of_string s with
    | Some b -> Ok b
    | None ->
      Error (`Msg (Printf.sprintf "unknown burst %S (steady|frontload|wave)" s))
  in
  let print ppf b = Fmt.string ppf (Workload.burst_name b) in
  Arg.conv (parse, print)

let fleet_cmd =
  let app_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"APP" ~doc:"Application name.")
  in
  let users_arg =
    Arg.(value & opt int 1000 & info [ "users" ] ~docv:"N" ~doc:"Fleet size.")
  in
  let domains_arg =
    Arg.(value & opt int (Pool.default_domains ())
         & info [ "domains" ] ~docv:"N"
             ~doc:"Domains executing users in parallel (default: the \
                   hardware's recommended count).  The report is identical \
                   for every value; only the wall clock changes.")
  in
  let epoch_arg =
    Arg.(value & opt int 32
         & info [ "epoch" ] ~docv:"N"
             ~doc:"Mean arrivals per epoch.  Evidence is exchanged only at \
                   epoch barriers (periodic fleet report upload): contexts \
                   found in epoch $(i,e) are pinned from epoch $(i,e+1) on.")
  in
  let benign_frac_arg =
    Arg.(value & opt float 0.0
         & info [ "benign-frac" ] ~docv:"F"
             ~doc:"Fraction of users running the overflow-free input.")
  in
  let burst_arg =
    Arg.(value & opt burst_conv Workload.Steady
         & info [ "burst" ] ~docv:"SHAPE"
             ~doc:"Arrival shape: steady, frontload (launch spike) or wave.")
  in
  let wave_period_arg =
    Arg.(value & opt int 2
         & info [ "wave-period" ] ~docv:"N"
             ~doc:"Full heavy+light cycle of the $(b,wave) burst, in epochs \
                   (the heavy half comes first, so even a period longer than \
                   the run admits its launch cohort at epoch 0).")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the full fleet report as one JSON object on stdout \
                   (schema csod.fleet.report/1) instead of the summary.")
  in
  let live_arg =
    Arg.(value & opt ~vopt:(Some "-") (some string) None
         & info [ "live" ] ~docv:"FILE"
             ~doc:"Stream one csod.fleet.health/2 JSONL record per epoch \
                   barrier to $(docv) (default stdout), flushed line by \
                   line — tail it, or watch it with $(b,csod_run top).")
  in
  let fleet_trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the run's wall-clock timeline (per-domain user \
                   chunks, barrier waits, merges) as Chrome trace-event JSON \
                   to $(docv) ($(b,-) for stdout) — open it in \
                   ui.perfetto.dev.")
  in
  let run name engine users domains epoch benign_frac burst wave_period seed
      policy no_evidence store_file faults respond json live trace_out =
    let engine = apply_engine engine in
    match Buggy_app.by_name name with
    | None ->
      Printf.eprintf "unknown application %S\n" name;
      exit 1
    | Some app ->
      let config = config_of ~tool:`Csod ~policy ~no_evidence in
      let workload =
        Workload.make ~benign_frac ~base_seed:seed ~burst ~wave_period ~users
          ()
      in
      (* The live stream goes through the fleet's health callback — invoked
         at barriers, in the main domain — NOT through a process-global
         event sink, which runtime trace points would race from the worker
         domains. *)
      let with_live f =
        match live with
        | None -> f None
        | Some "-" -> f (Some stdout)
        | Some file -> Out_channel.with_open_text file (fun oc -> f (Some oc))
      in
      with_live (fun live_oc ->
          let on_health =
            Option.map
              (fun oc s ->
                output_string oc (Obs_json.to_string (Health.to_json s));
                output_char oc '\n';
                (* Line-by-line flush: the stream is tail-able while the
                   run is still going. *)
                flush oc)
              live_oc
          in
          let cfg =
            Fleet.config ~domains ~epoch_size:epoch ?faults
              ~trace:(trace_out <> None)
              ?on_health
              ?patch_threshold:
                (match respond with Respond.Patch n -> Some n | _ -> None)
              workload
          in
          let store =
            match store_file with Some f -> Some (Persist.load f) | None -> None
          in
          let report =
            Fleet.run ?store cfg
              ~execute:
                (Execution.executor ~app ~config ~engine ~respond ?faults ())
          in
          save_store ?faults:report.Fleet.faults report.Fleet.store store_file;
          (match trace_out with
          | None -> ()
          | Some out ->
            let s =
              Trace_export.fleet_spans_to_string ~domains
                report.Fleet.trace_spans
            in
            (match out with
            | "-" -> print_endline s
            | file ->
              Out_channel.with_open_text file (fun oc ->
                  output_string oc s;
                  output_char oc '\n');
              (* stderr: stdout may be carrying --json or --live=- *)
              Printf.eprintf "fleet trace written to %s\n" file));
          if json then
            print_endline
              (Obs_json.to_string
                 (Fleet.to_json ~app:app.Buggy_app.name
                    ~config:(Config.label config) report))
          else if live <> Some "-" then begin
            Printf.printf "%s under %s\n" app.Buggy_app.name
              (Config.label config);
            print_string (Fleet.summary report);
            match report.Fleet.faults with
            | Some inj ->
              Printf.printf "pool faults: %s\n" (Fault_injector.summary inj)
            | None -> ()
          end)
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Crowdsourcing simulation: a parallel fleet of users sharing \
             overflow evidence at epoch barriers.")
    Term.(const run $ app_arg $ engine_arg $ users_arg $ domains_arg
          $ epoch_arg $ benign_frac_arg $ burst_arg $ wave_period_arg
          $ seed_arg $ policy_arg $ no_evidence_arg $ store_arg $ faults_arg
          $ respond_arg $ json_arg $ live_arg $ fleet_trace_arg)

(* ---- serve: long-running service loop over the fleet ---- *)

let no_color_arg =
  Arg.(value & flag & info [ "no-color" ] ~doc:"Disable ANSI colors.")

let serve_cmd =
  let app_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"APP" ~doc:"Application name.")
  in
  let users_arg =
    Arg.(value & opt int 100_000
         & info [ "users" ] ~docv:"N"
             ~doc:"Population ceiling: arrivals stop once $(docv) users have \
                   been admitted (the service keeps observing the idle \
                   fleet).")
  in
  let domains_arg =
    Arg.(value & opt int (Pool.default_domains ())
         & info [ "domains" ] ~docv:"N"
             ~doc:"Domains executing users in parallel.  History, alerts and \
                   the status snapshot (minus its $(b,wall) member) are \
                   bit-identical for every value.")
  in
  let epoch_arg =
    Arg.(value & opt int 32
         & info [ "epoch" ] ~docv:"N" ~doc:"Mean arrivals per epoch.")
  in
  let epochs_arg =
    Arg.(value & opt int 200
         & info [ "epochs" ] ~docv:"N"
             ~doc:"Epoch barriers to drive before exiting (a resumed service \
                   counts the epochs already served).")
  in
  let benign_frac_arg =
    Arg.(value & opt float 0.0
         & info [ "benign-frac" ] ~docv:"F"
             ~doc:"Fraction of users running the overflow-free input.")
  in
  let burst_arg =
    Arg.(value & opt burst_conv Workload.Wave
         & info [ "burst" ] ~docv:"SHAPE"
             ~doc:"Arrival shape: steady, frontload or wave (default wave — \
                   diurnal traffic is what a service sees).")
  in
  let wave_period_arg =
    Arg.(value & opt int 2
         & info [ "wave-period" ] ~docv:"N"
             ~doc:"Full heavy+light wave cycle, in epochs.")
  in
  let alerts_arg =
    Arg.(value & opt (some string) None
         & info [ "alerts" ] ~docv:"SPEC"
             ~doc:"Alert rules, comma-separated: \
                   $(i,name)[>$(i,LIMIT)|<$(i,LIMIT)][@$(i,WINDOW)] with \
                   names stall, degraded, skew, faults, cdf, patch — e.g. \
                   $(b,stall@50,degraded>0.1@10).  Default \
                   $(b,stall,degraded,skew).")
  in
  let alerts_file_arg =
    Arg.(value & opt (some string) None
         & info [ "alerts-file" ] ~docv:"FILE"
             ~doc:"Read alert rules from $(docv) (one per line, $(b,#) \
                   comments); combined with $(b,--alerts).")
  in
  let windows_arg =
    Arg.(value & opt string "1,10,100"
         & info [ "windows" ] ~docv:"LIST"
             ~doc:"Rolling-window sizes (epochs) for the dashboard, \
                   comma-separated.")
  in
  let history_arg =
    Arg.(value & opt (some string) None
         & info [ "history" ] ~docv:"DIR"
             ~doc:"Append checksummed csod.serve.history/1 segments under \
                   $(docv); $(b,csod_run replay) re-renders and re-checks \
                   them offline.")
  in
  let rotate_arg =
    Arg.(value & opt int 4096
         & info [ "rotate" ] ~docv:"N" ~doc:"History lines per segment file.")
  in
  let status_file_arg =
    Arg.(value & opt (some string) None
         & info [ "status-file" ] ~docv:"FILE"
             ~doc:"Atomically republish a csod.serve.status/1 snapshot to \
                   $(docv) at most every 0.1 s of wall time (at every \
                   barrier when epochs are slower) and on exit — watch it \
                   with $(b,csod_run top --follow).")
  in
  let checkpoint_file_arg =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Checkpoint the service state to $(docv); a later \
                   $(b,serve) with the same configuration resumes the same \
                   deterministic stream from it.")
  in
  let checkpoint_every_arg =
    Arg.(value & opt int 0
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Epochs between checkpoints (0: only on exit).")
  in
  let live_arg =
    Arg.(value & flag
         & info [ "live" ]
             ~doc:"Redraw the service dashboard in place whenever the \
                   status refreshes (at most every 0.1 s of wall time), and \
                   once more on exit if the last barrier did not.")
  in
  let parse_windows s =
    let parts =
      String.split_on_char ',' s |> List.map String.trim
      |> List.filter (( <> ) "")
    in
    let ints = List.filter_map int_of_string_opt parts in
    if List.length ints <> List.length parts || ints = []
       || List.exists (fun w -> w < 1) ints
    then None
    else Some ints
  in
  let run name engine users domains epoch epochs benign_frac burst wave_period
      seed policy no_evidence faults respond alerts alerts_file windows
      history rotate status_file checkpoint checkpoint_every live
      no_color =
    let engine = apply_engine engine in
    match Buggy_app.by_name name with
    | None ->
      Printf.eprintf "unknown application %S\n" name;
      exit 1
    | Some app ->
      let rules_spec =
        String.concat "\n"
          (Option.to_list alerts
          @ (match alerts_file with
            | Some f -> [ In_channel.with_open_text f In_channel.input_all ]
            | None -> []))
      in
      let rules =
        if rules_spec = "" then Alert.defaults
        else
          match Alert.parse rules_spec with
          | Ok [] -> Alert.defaults
          | Ok rules -> rules
          | Error m ->
            Printf.eprintf "%s\n" m;
            exit 1
      in
      let windows =
        match parse_windows windows with
        | Some ws -> ws
        | None ->
          Printf.eprintf "bad --windows %S (comma-separated sizes >= 1)\n"
            windows;
          exit 1
      in
      let config = config_of ~tool:`Csod ~policy ~no_evidence in
      let workload =
        Workload.make ~benign_frac ~base_seed:seed ~burst ~wave_period ~users
          ()
      in
      let cfg =
        Serve.config ~domains ~epoch_size:epoch ?faults
          ?patch_threshold:
            (match respond with Respond.Patch n -> Some n | _ -> None)
          ~rules ~windows ?history_dir:history ~rotate
          ?status_path:status_file ?checkpoint_path:checkpoint
          ~checkpoint_every workload
      in
      (match
         Serve.start cfg
           ~execute:
             (Execution.executor ~app ~config ~engine ~respond ?faults ())
       with
      | Error m ->
        Printf.eprintf "serve: %s\n" m;
        exit 1
      | Ok t ->
        let color = (not no_color) && Unix.isatty Unix.stdout in
        let resumed_at = Serve.epoch t in
        if resumed_at > 0 then
          Printf.printf "resumed from %s at epoch %d\n"
            (Option.value checkpoint ~default:"checkpoint") resumed_at;
        let paint () =
          if live && color then print_string "\x1b[2J\x1b[H";
          (match Serve.render_status ~color (Serve.status_json t) with
          | Some s -> print_string s
          | None -> ());
          flush stdout
        in
        let fired = ref 0 and cleared = ref 0 and painted = ref false in
        while Serve.epoch t < epochs do
          let o = Serve.step t in
          List.iter
            (fun (ev : Alert.event) ->
              if ev.Alert.firing then incr fired else incr cleared;
              if not live then
                Printf.printf "[alert] %s %s at epoch %d\n"
                  (Alert.to_spec ev.Alert.rule)
                  (if ev.Alert.firing then "FIRING" else "cleared")
                  ev.Alert.epoch)
            o.Serve.events;
          painted := live && o.Serve.refreshed;
          if !painted then paint ()
        done;
        let report = Serve.finish t in
        (* The final state, unless --live's last barrier just drew it. *)
        if not !painted then paint ();
        Printf.printf
          "served %d epochs: %d arrived, %d detections, %d alerts fired, %d \
           cleared, %.3f s wall\n"
          (Serve.epoch t - resumed_at)
          (Serve.arrived t) (Serve.detections t) !fired !cleared
          report.Fleet.wall_seconds;
        (match report.Fleet.first_catch with
        | Some s ->
          Printf.printf "first catch: user #%d in epoch %d\n"
            s.Fleet.user.Workload.uid s.Fleet.epoch
        | None -> ()))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the fleet as a long-lived service in virtual time: \
             open-ended arrivals, rolling-window telemetry, alert rules, \
             durable checksummed history, live status snapshots and \
             checkpoint/resume.  Deterministic: the same seed and schedule \
             produce bit-identical history and alerts at any \
             $(b,--domains).")
    Term.(const run $ app_arg $ engine_arg $ users_arg $ domains_arg
          $ epoch_arg $ epochs_arg $ benign_frac_arg $ burst_arg
          $ wave_period_arg
          $ seed_arg $ policy_arg $ no_evidence_arg $ faults_arg
          $ respond_arg $ alerts_arg
          $ alerts_file_arg $ windows_arg $ history_arg $ rotate_arg
          $ status_file_arg $ checkpoint_file_arg
          $ checkpoint_every_arg $ live_arg $ no_color_arg)

(* ---- replay: re-render and re-check a history directory offline ---- *)

let replay_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR"
             ~doc:"History directory written by $(b,serve --history).")
  in
  let run dir no_color =
    match Serve.replay dir with
    | Error m ->
      Printf.eprintf "replay: %s\n" m;
      exit 1
    | Ok r ->
      let color = (not no_color) && Unix.isatty Unix.stdout in
      (match Serve.render_status ~color r.Serve.status with
      | Some s -> print_string s
      | None -> ());
      List.iter
        (fun body ->
          let str k =
            match Obs_json.member k body with
            | Some (`String s) -> s
            | _ -> "?"
          in
          let int k =
            Option.value ~default:0
              (Option.bind (Obs_json.member k body) Obs_json.to_int)
          in
          Printf.printf "[alert] %s %s at epoch %d\n" (str "spec")
            (if str "state" = "fire" then "FIRING" else "cleared")
            (int "epoch"))
        r.Serve.recorded;
      Printf.printf "history: %d health records, %d alert transitions%s\n"
        (List.length r.Serve.observations)
        (List.length r.Serve.recorded)
        (match r.Serve.read_errors with
        | [] -> ""
        | es -> Printf.sprintf ", %d corrupt lines skipped" (List.length es));
      List.iter (fun e -> Printf.eprintf "corrupt: %s\n" e) r.Serve.read_errors;
      if r.Serve.mismatches = [] then
        Printf.printf
          "replay: recomputed alert stream matches the recorded one\n"
      else begin
        List.iter (fun m -> Printf.eprintf "replay: %s\n" m) r.Serve.mismatches;
        exit 1
      end
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Rebuild the service's view from its durable history alone: \
             verify line checksums, re-render the dashboard, re-evaluate the \
             alert rules over the recorded health stream and compare against \
             the recorded alert transitions (non-zero exit on mismatch).")
    Term.(const run $ dir_arg $ no_color_arg)

(* ---- top: one-screen dashboard over a health stream ---- *)

let top_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:"Health JSONL stream (written by $(b,fleet --live=FILE)).")
  in
  let follow_arg =
    Arg.(value & flag
         & info [ "follow"; "f" ]
             ~doc:"Keep re-reading and re-rendering until interrupted, like \
                   $(b,tail -f) for the dashboard.")
  in
  let interval_arg =
    Arg.(value & opt float 0.5
         & info [ "interval" ] ~docv:"SECS"
             ~doc:"Polling interval with $(b,--follow).")
  in
  let read_samples file =
    (* Skip blank, foreign and torn lines: the stream may be mid-write
       when we poll it. *)
    if not (Sys.file_exists file) then []
    else
      In_channel.with_open_text file In_channel.input_lines
      |> List.filter_map (fun line ->
             Result.to_option
               (Result.bind (Obs_json.of_string line) Health.of_json))
  in
  (* A status file is a single csod.serve.status/1 object (atomically
     republished by [serve --status-file]); anything [render_status]
     refuses is treated as a health JSONL stream. *)
  let read_status file =
    if not (Sys.file_exists file) then None
    else
      In_channel.with_open_text file In_channel.input_all
      |> String.trim |> Obs_json.of_string |> Result.to_option
  in
  let run file follow interval no_color =
    let color = (not no_color) && Unix.isatty Unix.stdout in
    let render () =
      (match Option.bind (read_status file) (Serve.render_status ~color) with
      | Some s -> print_string s
      | None -> print_string (Health.render ~color (read_samples file)));
      flush stdout
    in
    if not follow then render ()
    else begin
      let interval = if interval > 0.0 then interval else 0.5 in
      try
        while true do
          (* Clear + home, then redraw the whole screen. *)
          if color then print_string "\x1b[2J\x1b[H";
          render ();
          Unix.sleepf interval
        done
      with Sys.Break -> ()
    end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Render a fleet health stream (csod.fleet.health/2 JSONL) or a \
             service status snapshot (csod.serve.status/1, auto-detected) as \
             a one-screen dashboard: detection CDF, rolling windows, alert \
             states, throughput, straggler skew, per-domain load bars.")
    Term.(const run $ file_arg $ follow_arg $ interval_arg $ no_color_arg)

(* ---- sim: deterministic simulation testing with shrinking ---- *)

let sim_cmd =
  let alphabet_arg =
    Arg.(value & opt_all string []
         & info [ "alphabet" ] ~docv:"NAME"
             ~doc:"Alphabet to sweep (repeatable).  Default: every \
                   real-system alphabet (heap, runtime, fleet, store, \
                   respond); runtime-threads (the runtime with thread \
                   spawn and exit) runs by name.  The planted-bug alphabets (store-buggy-merge, \
                   fleet-evidence-bug, respond-lost-conviction) are \
                   reachable only by explicit name.")
  in
  let sim_runs_arg =
    Arg.(value & opt int 100
         & info [ "runs" ] ~docv:"N"
             ~doc:"Operation sequences per alphabet (seeds $(b,--seed), \
                   $(b,--seed)+1, ...).")
  in
  let ops_arg =
    Arg.(value & opt int 60
         & info [ "ops" ] ~docv:"N" ~doc:"Maximum operations per sequence.")
  in
  let no_shrink_arg =
    Arg.(value & flag
         & info [ "no-shrink" ]
             ~doc:"Report the first failing sequence as generated, without \
                   minimizing it.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Append each counterexample as one csod.sim.repro/1 JSONL \
                   line to $(docv).")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Re-execute every csod.sim.repro/1 record in $(docv) and \
                   verify each fails at the recorded step with the recorded \
                   message and replay hash (bit-identical trace).  Non-zero \
                   exit on any divergence.")
  in
  let replay_file file =
    let lines =
      In_channel.with_open_text file In_channel.input_lines
      |> List.filter (fun l -> String.trim l <> "")
    in
    if lines = [] then begin
      Printf.eprintf "replay: %s holds no repro records\n" file;
      exit 1
    end;
    let bad = ref 0 in
    List.iteri
      (fun i line ->
        let fail msg =
          incr bad;
          Printf.printf "record %d: FAIL %s\n" (i + 1) msg
        in
        match Obs_json.of_string line with
        | Error m -> fail ("unparsable JSON: " ^ m)
        | Ok json -> (
          match Sim.of_json json with
          | Error m -> fail ("bad repro record: " ^ m)
          | Ok f -> (
            match Sim.replay Sim_registry.all f with
            | Ok msg ->
              Printf.printf "record %d: ok %s/%d %s\n" (i + 1) f.Sim.alphabet
                f.Sim.seed msg
            | Error m -> fail m)))
      lines;
    if !bad > 0 then begin
      Printf.eprintf "replay: %d of %d records diverged\n" !bad
        (List.length lines);
      exit 1
    end;
    Printf.printf "replay: %d records re-executed bit-identically\n"
      (List.length lines)
  in
  let run alphabets seed runs ops no_shrink out replay =
    match replay with
    | Some file -> replay_file file
    | None ->
      let packs =
        match alphabets with
        | [] -> Sim_registry.default
        | names ->
          List.map
            (fun n ->
              match Sim_registry.find n with
              | Some p -> p
              | None ->
                Printf.eprintf "unknown alphabet %S (have: %s)\n" n
                  (String.concat ", " Sim_registry.names);
                exit 1)
            names
      in
      let out_oc =
        Option.map (fun f -> open_out_gen [ Open_append; Open_creat ] 0o644 f) out
      in
      let failures = ref 0 in
      List.iter
        (fun pack ->
          let fs =
            Sim.run_packed ~shrink_failures:(not no_shrink) pack ~seed ~runs
              ~ops
          in
          (match fs with
          | [] ->
            Printf.printf "%-18s %d runs x %d ops: ok\n" (Sim.name_of pack)
              runs ops
          | fs ->
            List.iter
              (fun f ->
                incr failures;
                Printf.printf "%-18s FAILED\n%s" (Sim.name_of pack)
                  (Sim.summary f);
                match out_oc with
                | Some oc ->
                  output_string oc (Sim.repro_line f);
                  output_char oc '\n'
                | None -> ())
              fs);
          flush stdout)
        packs;
      Option.iter close_out out_oc;
      (match (out, !failures) with
      | Some file, n when n > 0 ->
        Printf.printf "%d counterexample%s appended to %s\n" n
          (if n = 1 then "" else "s")
          file
      | _ -> ());
      if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:"Deterministic simulation testing: draw weighted operation \
             sequences over a stack layer (heap, runtime, fleet, store), \
             check a model-based invariant after every step, shrink any \
             counterexample to a minimal operation list, and emit it as a \
             runnable csod.sim.repro/1 record.  $(b,--replay FILE) \
             re-executes recorded counterexamples bit-identically (replay \
             hash over ops, arguments and per-step state digests).")
    Term.(const run $ alphabet_arg $ seed_arg $ sim_runs_arg
          $ ops_arg $ no_shrink_arg $ out_arg $ replay_arg)

(* ---- validate: check JSONL against the schema registry ---- *)

let validate_cmd =
  let schema_arg =
    Arg.(value & opt (some string) None
         & info [ "schema" ] ~docv:"NAME"
             ~doc:"Every line must carry this schema tag and conform to its \
                   spec; the stream must not be empty.  An unknown $(docv) \
                   is an error.")
  in
  let file_arg =
    Arg.(value & pos 0 string "-"
         & info [] ~docv:"FILE" ~doc:"JSONL input; $(b,-) reads stdin.")
  in
  let run schema file =
    let text =
      if file = "-" then In_channel.input_all stdin
      else In_channel.with_open_bin file In_channel.input_all
    in
    match Schema.validate Schemas.all ?schema text with
    | Ok n ->
      Printf.printf "%s: %d valid JSONL line(s)%s\n" file n
        (match schema with Some s -> " [" ^ s ^ "]" | None -> "")
    | Error e ->
      Printf.eprintf "%s: %s\n" file e;
      exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Check that FILE holds one JSON object per line, no torn or \
             empty line, and that every line tagged with a known csod.* \
             schema conforms to its spec (a line with an unknown csod.* \
             tag fails).")
    Term.(const run $ schema_arg $ file_arg)

(* ---- exec: user-supplied MiniC program ---- *)

let exec_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"MiniC source file.")
  in
  let inputs_arg =
    Arg.(value & opt_all int []
         & info [ "input" ] ~docv:"N" ~doc:"Value for the input() builtin (repeatable).")
  in
  let module_arg =
    Arg.(value & opt string "main"
         & info [ "module" ] ~docv:"NAME" ~doc:"Module tag for the compilation unit.")
  in
  let dump_arg =
    Arg.(value & flag
         & info [ "dump" ] ~doc:"Pretty-print the checked program and exit.")
  in
  let run file inputs module_name engine tool policy no_evidence seed
      store_file faults respond dump metrics profile metrics_json events
      snapshot_sec flight trace_out =
    let engine = apply_engine engine in
    let source = In_channel.with_open_text file In_channel.input_all in
    match Program.load [ { Program.file; module_name; source } ] with
    | Error errs ->
      List.iter (fun e -> Printf.eprintf "%s\n" (Format.asprintf "%a" Program.pp_error e)) errs;
      exit 1
    | Ok program when dump ->
      print_endline (Pretty.program_to_string (Program.functions program))
    | Ok program ->
      let store = load_store store_file in
      let execute () =
        Execution.run_program ~program ~inputs:(Array.of_list inputs) ~engine
          ~config:(config_of ~tool ~policy ~no_evidence) ~seed ~store ~respond
          ~snapshot_cycles:(snapshot_cycles_of snapshot_sec) ?faults ()
      in
      let recorder =
        Option.map
          (fun capacity -> Flight_recorder.create ~capacity ())
          (recorder_capacity ~flight ~trace_out ~events)
      in
      let o =
        with_events events (fun () ->
            match recorder with
            | None -> execute ()
            | Some r -> Flight_recorder.with_recorder r execute)
      in
      print_outcome ~symbolize:(Program.symbolize program) o;
      emit_telemetry ~metrics ~profile ~metrics_json o.Execution.telemetry
        ~cycles:o.Execution.cycles;
      (match recorder with
      | Some r when flight <> None || trace_out <> None -> print_recording ~trace_out r
      | _ -> ());
      save_store ?faults:o.Execution.faults store store_file
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Run a MiniC source file under a detection tool.")
    Term.(const run $ file_arg $ inputs_arg $ module_arg $ engine_arg
          $ tool_arg $ policy_arg
          $ no_evidence_arg $ seed_arg $ store_arg $ faults_arg $ respond_arg
          $ dump_arg $ metrics_arg $ profile_arg $ metrics_json_arg
          $ events_arg $ snapshot_arg $ flight_arg $ trace_out_arg)

let () =
  let info =
    Cmd.info "csod_run" ~version:"1.0.0"
      ~doc:"Context-Sensitive Overflow Detection (CGO 2019) — simulation CLI"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; explain_cmd; fleet_cmd; serve_cmd; replay_cmd;
            top_cmd; sim_cmd; validate_cmd; exec_cmd ]))
