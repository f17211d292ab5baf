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
   executions.

   Every flag, lookup and file access that several subcommands share is
   defined once below, as a cmdliner term the subcommands compose. *)

open Cmdliner

(* ---- files: every path a flag names goes through here ---- *)

(* The CLI's answer to a bad path: one line on stderr, exit 1. *)
let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("csod_run: " ^ s);
      exit 1)
    fmt

(* [Sys_error] reads "PATH: reason" when an open fails, but only "reason"
   when a read does (a directory opens, then refuses to be read). *)
let sys_fail path m =
  if String.starts_with ~prefix:(path ^ ": ") m then fail "%s" m
  else fail "%s: %s" path m

(* The whole of the input file [path]. *)
let read path =
  try In_channel.with_open_text path In_channel.input_all
  with Sys_error m -> sys_fail path m

(* An output file the CLI writes itself, opened before any work and
   closed, so flushed, at exit. *)
let output ?(append = false) path =
  let mode = if append then Open_append else Open_trunc in
  match open_out_gen [ Open_wronly; Open_creat; mode; Open_text ] 0o666 path with
  | oc ->
    at_exit (fun () -> close_out oc);
    oc
  | exception Sys_error m -> sys_fail path m

(* One line to an output flag's channel. *)
let put (_, oc) s =
  output_string oc s;
  output_char oc '\n'

(* A path [lib/] writes during the run (the store, status and checkpoint
   files, or with [dir] the history directory) must be one before the run
   starts, or the run's work is lost to it at the end. *)
let check_path ?(dir = false) path =
  let kind p =
    match Unix.stat p with
    | s -> Ok s.Unix.st_kind
    | exception Unix.Unix_error (e, _, _) -> Error e
  in
  let bad e = fail "%s: %s" path (Unix.error_message e) in
  (match kind (Filename.dirname path) with
  | Ok Unix.S_DIR -> ()
  | Ok _ -> bad Unix.ENOTDIR
  | Error e -> bad e);
  match kind path with
  | Ok Unix.S_DIR when not dir -> bad Unix.EISDIR
  | Ok k when dir && k <> Unix.S_DIR -> bad Unix.ENOTDIR
  | Error e when e <> Unix.ENOENT -> bad e
  | _ -> ()

(* A FILE flag, as the path [lib/] writes ([checked]) or as the path and
   channel of an output the CLI writes, "-" for stdout ([opened]). *)
let checked ?dir arg =
  Term.(const (fun p -> Option.iter (check_path ?dir) p; p) $ arg)

let open_output p = (p, if p = "-" then stdout else output p)
let opened arg = Term.(const (Option.map open_output) $ arg)

let file_opt ?vopt ~doc names =
  Arg.(value & opt ?vopt (some string) None & info names ~docv:"FILE" ~doc)

(* A subcommand: its term yields the run, which goes under one net so a
   file error no check above foresaw (a permission, a full disk) still
   ends in one line. *)
let command name ~doc term =
  Cmd.v (Cmd.info name ~doc)
    Term.(const (fun run -> try run () with Sys_error m -> fail "%s" m) $ term)

(* ---- converters ---- *)

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
  let parse s =
    match List.find_opt (fun e -> Engine.to_string e = s) Engine.all with
    | Some e -> Ok e
    | None ->
      Error
        (`Msg (Printf.sprintf "unknown engine %S (interp|vm|vm-buggy-cycles)" s))
  in
  Arg.conv (parse, fun ppf e -> Fmt.string ppf (Engine.to_string e))

let of_result_conv of_string to_string =
  let parse s = Result.map_error (fun m -> `Msg m) (of_string s) in
  Arg.conv (parse, fun ppf v -> Fmt.string ppf (to_string v))

let faults_conv = of_result_conv Fault_plan.of_string Fault_plan.to_string
let respond_conv = of_result_conv Respond.mode_of_string Respond.mode_to_string

let burst_conv =
  of_result_conv
    (fun s ->
      Option.to_result (Workload.burst_of_string s)
        ~none:(Printf.sprintf "unknown burst %S (steady|frontload|wave)" s))
    Workload.burst_name

(* Numeric flags refuse an out-of-range value as a usage error (exit 124),
   before the value reaches a library constructor that would raise. *)
let int_at_least min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" min s))
  in
  Arg.conv (parse, Format.pp_print_int)

let fraction_conv =
  let parse s =
    match float_of_string_opt s with
    | Some f when f >= 0. && f <= 1. -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "expected a number in [0, 1], got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* --snapshot-sec, read as the virtual cycles between snapshots: at least
   one, and fewer than [max_int]. *)
let snapshot_cycles_conv =
  let cps = float_of_int Cost.cycles_per_second in
  let parse s =
    match float_of_string_opt s with
    | Some sec when sec *. cps >= 1. && sec *. cps < float_of_int max_int ->
      Ok (int_of_float (sec *. cps))
    | _ ->
      Error
        (`Msg
           (Printf.sprintf "expected a number of seconds in [%g, %g), got %S"
              (1. /. cps) (float_of_int max_int /. cps) s))
  in
  Arg.conv (parse, fun ppf c -> Format.pp_print_float ppf (float_of_int c /. cps))

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

(* ---- what a run executes ---- *)

let app_t =
  let lookup name =
    match Buggy_app.by_name name with
    | Some app -> app
    | None ->
      Printf.eprintf "unknown application %S; try 'csod_run list'\n" name;
      exit 1
  in
  Term.(const lookup
        $ Arg.(required & pos 0 (some string) None
               & info [] ~docv:"APP" ~doc:"Application name (see $(b,list))."))

(* --engine, the engine a command passes as [~engine].  vm-buggy-cycles
   is the planted miscounting bug kept around for the differential-testing
   net — a live demonstration that the golden pins and the sweep catch a
   one-cycle divergence. *)
let engine_t =
  Arg.(value & opt engine_conv Engine.Vm
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"MiniC execution engine: $(b,vm) (default — compiled \
                 bytecode, several times faster), $(b,interp) (the \
                 reference AST interpreter), or $(b,vm-buggy-cycles) (the \
                 VM with a deliberately planted cycle-miscounting bug, for \
                 exercising the differential-testing net).  Both real \
                 engines are observably bit-identical: same virtual \
                 cycles, detections, output and PRNG stream.")

(* The tool configuration: [tool] is --tool's term, or a constant where a
   command runs CSOD only. *)
let config_t tool =
  let config tool policy no_evidence =
    match tool with
    | `Csod -> Config.csod_with_policy policy ~evidence:(not no_evidence)
    | `Asan -> Config.asan_min_redzone
    | `None -> Config.Baseline
  in
  Term.(const config $ tool
        $ Arg.(value & opt policy_conv Params.Near_fifo
               & info [ "policy" ] ~docv:"POLICY" ~doc:"Watchpoint replacement policy.")
        $ Arg.(value & flag & info [ "no-evidence" ] ~doc:"Disable the canary mechanism."))

let tool_arg =
  Arg.(value & opt tool_conv `Csod
       & info [ "tool" ] ~docv:"TOOL" ~doc:"Detection tool to run under.")

let input_t =
  Term.(const (fun benign -> if benign then Execution.Benign else Execution.Buggy)
        $ Arg.(value & flag & info [ "benign" ] ~doc:"Use the overflow-free input."))

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Execution seed.")

let runs_arg =
  Arg.(value & opt (int_at_least 1) 1 & info [ "runs" ] ~docv:"N" ~doc:"Number of executions.")

let store_t =
  checked
    (file_opt [ "store" ]
       ~doc:"Load/save the persistent store of overflowing contexts.")

let load_store = function None -> Persist.create () | Some file -> Persist.load file
let save_store ?faults store = Option.iter (Persist.save ?faults store)

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

(* --tool and --respond together: a response acts on a tool's detections,
   and --tool none builds no response layer. *)
let tool_respond_t =
  let check config respond =
    if config = Config.Baseline && respond <> Respond.Off then
      `Error (true, "--respond needs a detection tool: --tool none detects nothing")
    else `Ok (config, respond)
  in
  Term.(ret (const check $ config_t tool_arg $ respond_arg))

let print_fault_summary = function
  | None -> ()
  | Some inj -> Printf.printf "faults: %s\n" (Fault_injector.summary inj)

let color_t =
  Term.(const (fun no_color -> (not no_color) && Unix.isatty Unix.stdout)
        $ Arg.(value & flag & info [ "no-color" ] ~doc:"Disable ANSI colors."))

(* ---- observing an execution: run, exec and explain ---- *)

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

let trace_out_t =
  opened
    (file_opt [ "trace-out" ]
       ~doc:"Write the recorded execution as Chrome trace-event JSON to \
             $(docv) ($(b,-) for stdout) — open it in chrome://tracing or \
             ui.perfetto.dev.  Implies $(b,--flight-recorder).")

let write_trace ((path, _) as out) records =
  put out (Trace_export.to_string ~cycles_per_second:Cost.cycles_per_second records);
  if path <> "-" then Printf.printf "trace written to %s\n" path

type observe = {
  metrics : bool;
  profile : bool;
  metrics_json : (string * out_channel) option;
  events : (string * out_channel) option;
  snapshot_cycles : int;
  capacity : int option;  (* a recorder per execution, when any flag reads one *)
  shown : bool;           (* --flight-recorder or --trace-out: print the recording *)
  trace_out : (string * out_channel) option;
}

(* --events and --snapshot-sec, checked together before any output is
   opened: snapshots go out on the events stream. *)
let events_t =
  let check events snapshot_cycles =
    if snapshot_cycles <> None && events = None then
      `Error (true, "--snapshot-sec requires --events: snapshots go out on its stream")
    else `Ok (Option.map open_output events, Option.value snapshot_cycles ~default:0)
  in
  Term.(ret
          (const check
          $ file_opt [ "events" ]
              ~doc:"Stream the flight recorder's lifecycle records (allocations, \
                    sampling decisions, watchpoint installs/evictions, traps, \
                    canary checks, detections, probability changes, phases, \
                    responses) and periodic snapshots as JSONL to $(docv) ($(b,-) for stdout).  \
                    Implies a recorder: each execution's recorder writes \
                    its records into the stream as it makes them."
          $ Arg.(value & opt (some snapshot_cycles_conv) None
                 & info [ "snapshot-sec" ] ~docv:"SECS"
                     ~doc:"Emit a telemetry snapshot event into the $(b,--events) \
                           stream every $(docv) of virtual time (requires \
                           $(b,--events); at least one cycle).")))

let observe_t =
  let make (events, snapshot_cycles) metrics profile metrics_json flight trace_out =
    { metrics; profile; metrics_json; events; snapshot_cycles;
      (* [--trace-out] and [--events] read the recorder, so they imply one. *)
      capacity =
        (match flight with
        | None when trace_out <> None || events <> None ->
          Some Flight_recorder.default_capacity
        | capacity -> capacity);
      shown = flight <> None || trace_out <> None;
      trace_out }
  in
  (* [events_t] goes first, so a refused combination opens no output. *)
  Term.(const make $ events_t
        $ Arg.(value & flag
               & info [ "metrics" ]
                   ~doc:"Print the metrics registry and per-phase cycle \
                         attribution after the run.")
        $ Arg.(value & flag
               & info [ "profile" ]
                   ~doc:"Print the per-phase cycle-attribution table after the run.")
        $ opened
            (file_opt [ "metrics-json" ]
               ~doc:"Write the full telemetry dump (counters, gauges, histograms, \
                     per-phase cycles) as JSON to $(docv) ($(b,-) for stdout).")
        $ flight_arg $ trace_out_t)

(* Run [f] under the observation flags.  [f] wraps each execution in the
   [recorded] it is given — a fresh recorder per execution, so the kept
   recording is one coherent run, not a splice; each one streams into the
   --events channel, so several executions share one file — and returns
   the final outcome.  Its telemetry and recording are shown after;
   [final] is its seed when it was not the only execution, since each
   execution runs on a fresh machine and registries are not carried
   across runs. *)
let observed o ?final f =
  let recording = ref None in
  let recorded execute =
    match o.capacity with
    | None -> execute ()
    | Some capacity ->
      let r = Flight_recorder.create ~capacity ?stream:(Option.map snd o.events) () in
      recording := Some r;
      Flight_recorder.with_recorder r execute
  in
  let last = f recorded in
  Option.iter
    (fun (out : Execution.outcome) ->
      let tele = out.Execution.telemetry and total_cycles = out.Execution.cycles in
      if o.metrics || o.profile then
        Option.iter (Printf.printf "(telemetry of the final execution, seed %d)\n") final;
      if o.metrics then print_string (Telemetry.summary tele ~total_cycles)
      else if o.profile then print_string (Telemetry.profile_table tele ~total_cycles);
      if o.metrics || o.profile then print_newline ();
      Option.iter
        (fun out -> put out (Telemetry.json_string tele ~total_cycles))
        o.metrics_json)
    last;
  (* A recorder implied only by --events leaves stdout as it was. *)
  (match !recording with
  | Some r when o.shown ->
    Option.iter (Printf.printf "(flight recording of the final execution, seed %d)\n") final;
    Printf.printf "flight recorder: %d records kept (%d emitted, %d overwritten)\n"
      (Flight_recorder.recorded r - Flight_recorder.dropped r)
      (Flight_recorder.recorded r) (Flight_recorder.dropped r);
    Option.iter (fun out -> write_trace out (Flight_recorder.records r)) o.trace_out
  | _ -> ());
  last

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
  command "list" ~doc:"List the bundled buggy applications." (Term.const run)

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
  let run app engine (config, respond) input seed runs store_file faults obs () =
    let store = load_store store_file in
    let final = if runs > 1 then Some (seed + runs - 1) else None in
    let last =
      observed obs ?final (fun recorded ->
          let detected = ref 0 and survived = ref 0 and last = ref None in
          for s = seed to seed + runs - 1 do
            let o =
              recorded (fun () ->
                  Execution.run ~app ~config ~engine ~input ~seed:s ~store
                    ~respond ~snapshot_cycles:obs.snapshot_cycles ?faults ())
            in
            if runs = 1 then print_outcome ~symbolize:(Execution.symbolizer app) o;
            if o.Execution.detected then incr detected;
            if o.Execution.survived then incr survived;
            last := Some o
          done;
          if runs > 1 then begin
            Printf.printf "%s: detected in %d/%d executions (%s)\n" app.Buggy_app.name
              !detected runs (Config.label config);
            if respond = Respond.Oblivious then
              Printf.printf "%s: survived %d/%d executions under oblivious mode\n"
                app.Buggy_app.name !survived runs;
            Option.iter
              (fun o ->
                print_fault_summary o.Execution.faults;
                if o.Execution.degraded then
                  Printf.printf "(final execution degraded to canary-only mode)\n")
              !last
          end;
          !last)
    in
    save_store ?faults:(Option.bind last (fun o -> o.Execution.faults)) store store_file
  in
  command "run" ~doc:"Run a bundled buggy application under a detection tool."
    Term.(const run $ app_t $ engine_t $ tool_respond_t $ input_t $ seed_arg
          $ runs_arg $ store_t $ faults_arg $ observe_t)

(* ---- explain: post-mortem diagnosis ---- *)

let explain_cmd =
  let run app config input seed runs flight trace_out () =
    let capacity =
      Option.value flight ~default:Flight_recorder.default_capacity
    in
    let a = Postmortem.analyze ~app ~config ~input ~seed ~capacity () in
    Printf.printf "%s, %s, seed %d\n" app.Buggy_app.name (Config.label config)
      seed;
    print_string (Postmortem.render ~symbolize:(Execution.symbolizer app) a);
    Option.iter (fun out -> write_trace out a.Postmortem.records) trace_out;
    if runs > 1 then begin
      Printf.printf "\n=== miss attribution over %d runs (seeds %d..%d) ===\n"
        runs seed (seed + runs - 1);
      List.iter
        (fun (label, n) ->
          Printf.printf "  %-24s %5d  (%.1f%%)\n" label n
            (100.0 *. float_of_int n /. float_of_int runs))
        (Effectiveness.miss_attribution ~app ~config ~runs ~from_seed:seed ())
    end
  in
  command "explain"
    ~doc:"Post-mortem diagnosis: run an app under CSOD with a flight \
          recorder plus the ground-truth oracle, and explain why the bug \
          was detected or missed (failed coin flips, lost watchpoints, \
          probability timeline).  With $(b,--runs) N, also tally the \
          verdicts across N seeds."
    Term.(const run $ app_t $ config_t (const `Csod) $ input_t $ seed_arg
          $ runs_arg $ flight_arg $ trace_out_t)

(* ---- the fleet's shape: fleet and serve ---- *)

type fleet = {
  app : Buggy_app.t;
  config : Config.t;
  workload : Workload.t;
  domains : int;
  epoch_size : int;
  faults : Fault_plan.t option;
  patch_threshold : int option;  (* --respond patch=N, for the health tallies *)
  execute : Execution.outcome Fleet.executor;
}

(* The flags both commands share; only the defaults of --users and --burst
   differ. *)
let fleet_t ~users ~burst =
  let make app engine config users domains epoch_size benign_frac burst
      wave_period seed faults respond =
    { app; config; domains; epoch_size; faults;
      workload =
        Workload.make ~benign_frac ~base_seed:seed ~burst ~wave_period ~users ();
      patch_threshold =
        (match respond with Respond.Patch n -> Some n | _ -> None);
      execute = Execution.executor ~app ~config ~engine ~respond ?faults () }
  in
  Term.(const make $ app_t $ engine_t $ config_t (const `Csod)
        $ Arg.(value & opt (int_at_least 0) users
               & info [ "users" ] ~docv:"N"
                   ~doc:"Population: arrivals stop once $(docv) users have been \
                         admitted ($(b,serve) keeps observing the idle fleet).")
        $ Arg.(value & opt (int_at_least 1) (Pool.default_domains ())
               & info [ "domains" ] ~docv:"N"
                   ~doc:"Domains executing users in parallel (default: the \
                         hardware's recommended count).  Reports, history, \
                         alerts and the status snapshot are bit-identical for \
                         every value; only their wall-clock fields change.")
        $ Arg.(value & opt (int_at_least 1) 32
               & info [ "epoch" ] ~docv:"N"
                   ~doc:"Mean arrivals per epoch.  Evidence is exchanged only at \
                         epoch barriers (periodic fleet report upload): contexts \
                         found in epoch $(i,e) are pinned from epoch $(i,e+1) on.")
        $ Arg.(value & opt fraction_conv 0.0
               & info [ "benign-frac" ] ~docv:"F"
                   ~doc:"Fraction of users running the overflow-free input.")
        $ Arg.(value & opt burst_conv burst
               & info [ "burst" ] ~docv:"SHAPE"
                   ~doc:"Arrival shape: steady, frontload (launch spike) or wave \
                         (diurnal traffic, what a service sees).")
        $ Arg.(value & opt (int_at_least 1) 2
               & info [ "wave-period" ] ~docv:"N"
                   ~doc:"Full heavy+light cycle of the $(b,wave) burst, in epochs \
                         (the heavy half comes first, so even a period longer than \
                         the run admits its launch cohort at epoch 0).")
        $ seed_arg $ faults_arg $ respond_arg)

(* ---- fleet ---- *)

let fleet_cmd =
  let live_arg =
    file_opt [ "live" ] ~vopt:(Some "-")
      ~doc:"Stream each epoch barrier's record (csod.fleet.health/3 \
            JSONL: the epoch's own counts, the store after the barrier \
            and a wall-clock object) to $(docv) (default stdout), \
            flushed line by line — tail it, or watch it with \
            $(b,csod_run top)."
  in
  let trace_arg =
    file_opt [ "trace-out" ]
      ~doc:"Write the run's wall-clock timeline (per-domain user \
            chunks, barrier waits, merges) as Chrome trace-event JSON \
            to $(docv) ($(b,-) for stdout) — open it in \
            ui.perfetto.dev."
  in
  let run f store_file json live trace_out () =
    (* The live stream goes through the fleet's health callback — invoked
       at barriers, in the main domain — NOT through the process-global
       recorder's stream, which runtime hooks would race from the worker
       domains. *)
    let on_health =
      Option.map
        (fun ((_, oc) as out) s ->
          put out (Obs_json.to_string (Health.line s));
          (* Line-by-line flush: the stream is tail-able while the run is
             still going. *)
          flush oc)
        live
    in
    let cfg =
      Fleet.config ~domains:f.domains ~epoch_size:f.epoch_size ?faults:f.faults
        ~trace:(trace_out <> None) ?on_health ?patch_threshold:f.patch_threshold
        f.workload
    in
    let report =
      Fleet.run ?store:(Option.map Persist.load store_file) cfg ~execute:f.execute
    in
    save_store ?faults:report.Fleet.faults report.Fleet.store store_file;
    Option.iter
      (fun ((path, _) as out) ->
        put out
          (Trace_export.fleet_spans_to_string ~domains:f.domains
             report.Fleet.trace_spans);
        (* stderr: stdout may be carrying --json or --live=- *)
        if path <> "-" then Printf.eprintf "fleet trace written to %s\n" path)
      trace_out;
    if json then
      print_endline
        (Obs_json.to_string
           (Fleet.to_json ~app:f.app.Buggy_app.name
              ~config:(Config.label f.config) report))
    else if Option.map fst live <> Some "-" then begin
      Printf.printf "%s under %s\n" f.app.Buggy_app.name (Config.label f.config);
      print_string (Fleet.summary report);
      match report.Fleet.faults with
      | Some inj -> Printf.printf "pool faults: %s\n" (Fault_injector.summary inj)
      | None -> ()
    end
  in
  command "fleet"
    ~doc:"Crowdsourcing simulation: a parallel fleet of users sharing \
          overflow evidence at epoch barriers."
    Term.(const run $ fleet_t ~users:1000 ~burst:Workload.Steady $ store_t
          $ Arg.(value & flag
                 & info [ "json" ]
                     ~doc:"Emit the full fleet report as one JSON object on stdout \
                           (schema csod.fleet.report/1) instead of the summary.")
          $ opened live_arg $ opened trace_arg)

(* ---- serve: long-running service loop over the fleet ---- *)

let print_alert (ev : Alert.event) =
  Printf.printf "[alert] %s %s at epoch %d\n" (Alert.to_spec ev.rule)
    (if ev.firing then "FIRING" else "cleared")
    ev.epoch

let serve_cmd =
  let epochs_arg =
    Arg.(value & opt int 200
         & info [ "epochs" ] ~docv:"N"
             ~doc:"Epoch barriers to drive before exiting (a resumed service \
                   counts the epochs already served).")
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
    file_opt [ "alerts-file" ]
      ~doc:"Read alert rules from $(docv) (one per line, $(b,#) \
            comments); combined with $(b,--alerts)."
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
             ~doc:"Append checksummed csod.serve.history/2 segments under \
                   $(docv); $(b,csod_run replay) re-renders and re-checks \
                   them offline.  A fresh run (no $(b,--checkpoint) file to \
                   resume from) into a directory that already holds \
                   segments is refused with exit 1.")
  in
  let rotate_arg =
    Arg.(value & opt (int_at_least 1) 4096
         & info [ "rotate" ] ~docv:"N" ~doc:"History lines per segment file.")
  in
  let status_file_arg =
    file_opt [ "status-file" ]
      ~doc:"Atomically republish a csod.serve.status/2 snapshot to \
            $(docv) at most every 0.1 s of wall time (at every \
            barrier when epochs are slower) and on exit — watch it \
            with $(b,csod_run top --follow)."
  in
  let checkpoint_file_arg =
    file_opt [ "checkpoint" ]
      ~doc:"Checkpoint the evidence store and the $(b,--history) \
            position to $(docv) (requires $(b,--history)); a later \
            $(b,serve) with the same configuration replays the history \
            and resumes the same deterministic stream from it, and one \
            under another configuration is refused."
  in
  let checkpoint_every_arg =
    Arg.(value & opt (int_at_least 0) 0
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Epochs between checkpoints (0: only on exit; above 0 \
                   requires $(b,--checkpoint)).")
  in
  (* --history, --checkpoint and --checkpoint-every, checked together: a
     resume replays the history, and an interval needs a checkpoint. *)
  let durable_t =
    let check history checkpoint every =
      if checkpoint <> None && history = None then
        `Error (true, "--checkpoint requires --history: a resume replays the history")
      else if every > 0 && checkpoint = None then
        `Error (true, "--checkpoint-every requires --checkpoint: there is no checkpoint to write")
      else `Ok (history, checkpoint, every)
    in
    Term.(ret
            (const check $ checked ~dir:true history_arg
            $ checked checkpoint_file_arg $ checkpoint_every_arg))
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
  let run f epochs alerts alerts_file windows
      (history, checkpoint, checkpoint_every) rotate status_file live color () =
    let rules_spec =
      String.concat "\n" (Option.to_list alerts @ Option.to_list (Option.map read alerts_file))
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
    let cfg =
      Serve.config ~domains:f.domains ~epoch_size:f.epoch_size ?faults:f.faults
        ?patch_threshold:f.patch_threshold ~rules ~windows ?history_dir:history
        ~rotate ?status_path:status_file ?checkpoint_path:checkpoint
        ~checkpoint_every f.workload
    in
    match Serve.start cfg ~execute:f.execute with
    | Error m ->
      Printf.eprintf "serve: %s\n" m;
      exit 1
    | Ok t ->
      let resumed_at = Serve.epoch t in
      if resumed_at > 0 then
        Printf.printf "resumed from %s at epoch %d\n"
          (Option.value checkpoint ~default:"checkpoint") resumed_at;
      let paint () =
        if live && color then print_string "\x1b[2J\x1b[H";
        print_string (Serve.render_status ~color (Serve.status t));
        flush stdout
      in
      let fired = ref 0 and cleared = ref 0 and painted = ref false in
      while Serve.epoch t < epochs do
        let o = Serve.step t in
        List.iter
          (fun (ev : Alert.event) ->
            if ev.Alert.firing then incr fired else incr cleared;
            if not live then print_alert ev)
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
        (Serve.arrived t) (Serve.status t).detections !fired !cleared
        report.Fleet.wall_seconds;
      (* A resumed session's fleet saw only the epochs since the resume. *)
      Option.iter
        (fun s ->
          Printf.printf "first catch%s: user #%d in epoch %d\n"
            (if resumed_at > 0 then " since the resume" else "")
            s.Fleet.user.Workload.uid s.Fleet.epoch)
        report.Fleet.first_catch
  in
  command "serve"
    ~doc:"Run the fleet as a long-lived service in virtual time: \
          open-ended arrivals, rolling-window telemetry, alert rules, \
          durable checksummed history, live status snapshots and \
          checkpoint/resume.  Deterministic: the same seed and schedule \
          produce bit-identical history and alerts at any \
          $(b,--domains)."
    Term.(const run $ fleet_t ~users:100_000 ~burst:Workload.Wave $ epochs_arg
          $ alerts_arg $ alerts_file_arg $ windows_arg $ durable_t $ rotate_arg
          $ checked status_file_arg $ live_arg $ color_t)

(* ---- replay: re-render and re-check a history directory offline ---- *)

let replay_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR"
             ~doc:"History directory written by $(b,serve --history).")
  in
  let run dir color () =
    match Serve.replay dir with
    | Error m ->
      Printf.eprintf "replay: %s\n" m;
      exit 1
    | Ok r ->
      print_string (Serve.render_status ~color r.Serve.status);
      List.iter print_alert r.Serve.recorded;
      Printf.printf "history: %d health records, %d alert transitions%s\n"
        (List.length r.Serve.health)
        (List.length r.Serve.recorded)
        (match r.Serve.read_errors with
        | [] -> ""
        | es -> Printf.sprintf ", %d corrupt lines skipped" (List.length es));
      List.iter (fun e -> Printf.eprintf "corrupt: %s\n" e) r.Serve.read_errors;
      List.iter (fun m -> Printf.eprintf "replay: %s\n" m) r.Serve.mismatches;
      (* Fail closed: a log that is not whole matches nothing. *)
      if r.Serve.read_errors <> [] || r.Serve.mismatches <> [] then exit 1;
      Printf.printf "replay: recomputed alert stream matches the recorded one\n"
  in
  command "replay"
    ~doc:"Rebuild the service's view from its durable history alone: \
          verify line checksums and the record sequence, re-render the \
          dashboard, re-evaluate the alert rules over the recorded health \
          stream and compare against the recorded alert transitions.  \
          Non-zero exit on a mismatch or on any line that is not a record \
          of the log (torn, empty, corrupt or out of sequence), which is \
          listed on stderr and not replayed."
    Term.(const run $ dir_arg $ color_t)

(* ---- top: one-screen dashboard over a health stream ---- *)

let top_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:"Health JSONL stream (written by $(b,fleet --live=FILE)) \
                   or service status file (written by \
                   $(b,serve --status-file)).")
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
  let run file follow interval color () =
    let render () =
      (* A file not there yet is an empty stream.  A status file is a single
         csod.serve.status/2 object (atomically republished by [serve
         --status-file]) read through its decoder; anything else is a
         health JSONL stream, whose blank and torn lines are skipped: it
         may be mid-write when we poll it.  A file that holds no record but
         a line tagged with another csod.* schema is in a format this build
         does not read: refused by name, never drawn as an empty one. *)
      let text = if Sys.file_exists file then read file else "" in
      let tag json =
        match Obs_json.member "schema" json with Some (`String s) -> s | _ -> ""
      in
      (match Obs_json.of_string (String.trim text) with
      | Ok json when String.starts_with ~prefix:"csod.serve.status/" (tag json) -> (
        match Schema.decode Serve.status_spec json with
        | Ok s -> print_string (Serve.render_status ~color s)
        | Error e -> fail "%s: %s" file e)
      | _ -> (
        match List.filter_map Result.to_option (Schema.read Health.spec text) with
        | [] ->
          Lines.fold
            (fun () _ line ->
              match Result.bind line Obs_json.of_string with
              | Ok json
                when String.starts_with ~prefix:"csod." (tag json)
                     && tag json <> Health.schema ->
                Result.iter_error (fail "%s: %s" file) (Schema.decode Health.spec json)
              | _ -> ())
            () text;
          print_string (Health.render ~color [])
        | records -> print_string (Health.render ~color records)));
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
  command "top"
    ~doc:"Render a fleet health stream (csod.fleet.health/3 JSONL, folded \
          into users arrived, detections and the CDF over arrivals) or a \
          service status snapshot (csod.serve.status/2, auto-detected) as \
          a one-screen dashboard: detection CDF, rolling windows, alert \
          states, throughput, straggler skew, per-domain load bars.  A \
          file in another csod.* format (an older version's included) is \
          refused with exit 1."
    Term.(const run $ file_arg $ follow_arg $ interval_arg $ color_t)

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
    file_opt [ "out" ]
      ~doc:"Append each counterexample as one csod.sim.repro/1 JSONL \
            line to $(docv)."
  in
  let replay_arg =
    file_opt [ "replay" ]
      ~doc:"Re-execute every csod.sim.repro/1 record in $(docv) and \
            verify each fails at the recorded step with the recorded \
            message and replay hash (bit-identical trace).  Non-zero \
            exit on any divergence."
  in
  let replay_file file =
    let records = Schema.read (Sim.repro_spec Sim_registry.all) (read file) in
    if records = [] then begin
      Printf.eprintf "replay: %s holds no repro records\n" file;
      exit 1
    end;
    let bad = ref 0 in
    List.iteri
      (fun i record ->
        match Result.bind record (Sim.replay Sim_registry.all) with
        | Ok msg ->
          let f = Result.get_ok record in
          Printf.printf "record %d: ok %s/%d %s\n" (i + 1) f.Sim.alphabet
            f.Sim.seed msg
        | Error m ->
          incr bad;
          Printf.printf "record %d: FAIL %s\n" (i + 1) m)
      records;
    if !bad > 0 then begin
      Printf.eprintf "replay: %d of %d records diverged\n" !bad
        (List.length records);
      exit 1
    end;
    Printf.printf "replay: %d records re-executed bit-identically\n"
      (List.length records)
  in
  let run alphabets seed runs ops no_shrink out replay () =
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
      let out = Option.map (fun f -> (f, output ~append:true f)) out in
      let failures = ref 0 in
      List.iter
        (fun pack ->
          (match
             Sim.run_packed ~shrink_failures:(not no_shrink) pack ~seed ~runs
               ~ops
           with
          | [] ->
            Printf.printf "%-18s %d runs x %d ops: ok\n" (Sim.name_of pack)
              runs ops
          | fs ->
            List.iter
              (fun f ->
                incr failures;
                Printf.printf "%-18s FAILED\n%s" (Sim.name_of pack)
                  (Sim.summary f);
                Option.iter (fun out -> put out (Sim.repro_line f)) out)
              fs);
          flush stdout)
        packs;
      (match (out, !failures) with
      | Some (file, _), n when n > 0 ->
        Printf.printf "%d counterexample%s appended to %s\n" n
          (if n = 1 then "" else "s")
          file
      | _ -> ());
      if !failures > 0 then exit 1
  in
  command "sim"
    ~doc:"Deterministic simulation testing: draw weighted operation \
          sequences over a stack layer (heap, runtime, fleet, store), \
          check a model-based invariant after every step, shrink any \
          counterexample to a minimal operation list, and emit it as a \
          runnable csod.sim.repro/1 record.  $(b,--replay FILE) \
          re-executes recorded counterexamples bit-identically (replay \
          hash over ops, arguments and per-step state digests)."
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
  let run schema file () =
    let text = if file = "-" then In_channel.input_all stdin else read file in
    match Schema.validate Schemas.all ?schema text with
    | Ok n ->
      Printf.printf "%s: %d valid JSONL line(s)%s\n" file n
        (match schema with Some s -> " [" ^ s ^ "]" | None -> "")
    | Error e ->
      Printf.eprintf "%s: %s\n" file e;
      exit 1
  in
  command "validate"
    ~doc:"Check that FILE holds one JSON object per line, no torn or \
          empty line, and that every line tagged with a known csod.* \
          schema conforms to its spec (a line with an unknown csod.* \
          tag fails)."
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
  let run file inputs module_name engine (config, respond) seed store_file faults
      dump obs () =
    match Program.load [ { Program.file; module_name; source = read file } ] with
    | Error errs ->
      List.iter (fun e -> Printf.eprintf "%s\n" (Format.asprintf "%a" Program.pp_error e)) errs;
      exit 1
    | Ok program when dump ->
      print_endline (Pretty.program_to_string (Program.functions program))
    | Ok program ->
      let store = load_store store_file in
      let o =
        observed obs (fun recorded ->
            let o =
              recorded (fun () ->
                  Execution.run_program ~program ~inputs:(Array.of_list inputs)
                    ~engine ~config ~seed ~store ~respond
                    ~snapshot_cycles:obs.snapshot_cycles ?faults ())
            in
            print_outcome ~symbolize:(Program.symbolize program) o;
            Some o)
      in
      save_store ?faults:(Option.bind o (fun o -> o.Execution.faults)) store store_file
  in
  command "exec" ~doc:"Run a MiniC source file under a detection tool."
    Term.(const run $ file_arg $ inputs_arg $ module_arg $ engine_t
          $ tool_respond_t $ seed_arg $ store_t $ faults_arg $ dump_arg
          $ observe_t)

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
