(* The four workloads.  Each trial is a closed serial loop over a fixed
   list of executions whose inputs are a pure function of the seed, so
   trials on one seed repeat bit for bit and their digests must agree. *)

let now_ns = Span.now_ns

(* How a trial reaches the library: through its own entry points, or
   through the benchmark's rebuilt call sequence with spans. *)
type path = Library | Rebuilt of Span.t

type mode = {
  config : Config.t;
  path : path;
  domains : int;
  recorder : bool;  (** run under a flight recorder *)
  calibrate : bool;
      (** time {!Calib}'s kernel before each step; one domain only *)
}

type trial = {
  op_ns : int array;       (** host ns of each execution *)
  op_kernel : int array;
      (** {!Calib.kernel_ns} just before the step holding each execution, or 0 *)
  op_digest : int array;   (** digest of each execution's observables *)
  op_allocs : int array;   (** simulated allocations of each execution *)
  op_bad : bool array;     (** the execution failed a semantic check *)
  wall_ns : int;           (** host ns of the whole loop *)
  steps_ns : int array;
      (** host ns of each step of the loop: each execution, or for
          serve-zziplib each [Serve.step] epoch and then [Serve.finish] *)
  steps_kernel : int array;  (** {!Calib.kernel_ns} just before each step, or 0 *)
  digest : int;            (** per-execution digests plus trial aggregates *)
  counters : (string * int) list;  (** registry counters, summed *)
  vcycles : int;
  tool_vcycles : int;
  store : Persist.t;       (** the evidence store the executions produced *)
  history_bytes : int;
}

type t = {
  name : string;
  ops : int;           (** executions per trial *)
  quick_ops : int;     (** executions per trial of a [--quick] smoke run *)
  ladder_ops : int;    (** executions the layer-ladder trials run *)
  asan_ops : int;      (** executions the ASan rung runs *)
  recorder : bool;     (** the workload's own recorder setting *)
  setup : dir:string -> unit -> unit -> unit;
      (** one repetition of the one-time set-up; returns the untimed
          clean-up *)
  prepare : unit -> unit;
      (** force the memos pool domains would otherwise race on *)
  run : mode -> seed:int -> ops:int -> quick:bool -> dir:string -> trial;
}

(* ---- digests ---- *)

module H = struct
  let init = 0x2bf29ce484222325
  let int h x = (h lxor x) * 0x100000001b3
  let bool h b = int h (Bool.to_int b)

  let string h s =
    String.fold_left (fun h c -> int h (Char.code c)) (int h (String.length s)) s

  let counters h l = List.fold_left (fun h (k, v) -> int (string h k) v) h l
  let hex h = Printf.sprintf "%016x" (h land max_int)
end

let source_code = function
  | Report.Watchpoint -> 1
  | Report.Canary_free -> 2
  | Report.Canary_exit -> 3

let report_digest h (r : Report.t) =
  let site, off = r.Report.ctx_key in
  let h = H.int h (match r.Report.kind with Report.Over_read -> 0 | Over_write -> 1) in
  H.int (H.int (H.int (H.int h (source_code r.Report.source)) site) off)
    r.Report.object_addr

let outcome_digest (o : Execution.outcome) =
  let h = H.bool (H.int H.init o.Execution.cycles) o.Execution.detected in
  let h = List.fold_left report_digest h o.Execution.reports in
  let h = H.int h (List.length o.Execution.asan_detections) in
  let h = H.string h (Option.value ~default:"" o.Execution.crashed) in
  let h = H.string h o.Execution.output in
  H.counters h (Metrics.counters_list (Telemetry.metrics o.Execution.telemetry))

(* Every report must name the overflow class the app is built around. *)
let reports_ok (app : Buggy_app.t) (o : Execution.outcome) =
  List.for_all (fun r -> r.Report.kind = app.Buggy_app.vuln) o.Execution.reports

let allocations (o : Execution.outcome) =
  match o.Execution.stats with Some s -> s.Runtime.allocations | None -> 0

let sum_counters lists =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (k, v) ->
         Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))))
    lists;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let kernel (mode : mode) = if mode.calibrate then Calib.kernel_ns () else 0

let with_recorder on f =
  if on then Flight_recorder.with_recorder (Flight_recorder.create ()) f else f ()

(* Execution [i] of a trial on [seed]: distinct seeds give disjoint ranges. *)
let op_seed seed i = (seed * 1_000_003) + i

(* ---- scratch directories (serve history, status, checkpoints) ---- *)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let fresh_dir =
  let n = ref 0 in
  fun parent ->
    incr n;
    let d = Filename.concat parent (Printf.sprintf "t%d" !n) in
    if Sys.file_exists d then remove_tree d;
    Sys.mkdir d 0o755;
    d

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let load_program (app : Buggy_app.t) =
  Engine.precompile (Program.load_exn app.Buggy_app.units)

let app name = Option.get (Buggy_app.by_name name)

(* ---- exec-heartbleed, diag-mysql ---- *)

(* [diag] is the [--flight-recorder --metrics] use: a recorder around each
   execution (the workload's recorder default), snapshots scheduled on the
   virtual clock, and the METRICS / CYCLE ATTRIBUTION tables rendered. *)
let exec_workload ~name ~app_name ~ops ~ladder_ops ~diag =
  let app = app app_name in
  let snapshot_cycles = if diag then Cost.cycles_per_second else 0 in
  let run (mode : mode) ~seed ~ops ~quick:_ ~dir:_ =
    let one i =
      let seed = op_seed seed i in
      let store = Persist.create () in
      let execute () =
        match mode.path with
        | Library ->
          Execution.run ~app ~config:mode.config ~engine:Engine.Vm ~seed ~store
            ~snapshot_cycles ()
        | Rebuilt span ->
          Rebuild.execution span ~app ~config:mode.config
            ~input:Execution.Buggy ~seed ~store ~snapshot_cycles ()
      in
      let recorder = if mode.recorder then Some (Flight_recorder.create ()) else None in
      let kernel = kernel mode in
      let t0 = now_ns () in
      let o =
        match recorder with
        | Some r -> Flight_recorder.with_recorder r execute
        | None -> execute ()
      in
      if diag then
        ignore (Telemetry.summary o.Execution.telemetry ~total_cycles:o.Execution.cycles);
      let ns = now_ns () - t0 in
      (* The recorder is observably pure, so it stays out of the digest;
         it must have seen at least one record per allocation. *)
      let starved =
        match recorder with
        | Some r -> Flight_recorder.recorded r < allocations o
        | None -> false
      in
      (ns, kernel, o, store, starved)
    in
    let t0 = now_ns () in
    let results = Pool.map ~domains:mode.domains ops ~f:one in
    let wall_ns = now_ns () - t0 in
    let outcomes = Array.map (fun (_, _, o, _, _) -> o) results in
    let store = Persist.create () in
    Array.iter (fun (_, _, _, s, _) -> Persist.merge store s) results;
    let op_digest = Array.map outcome_digest outcomes in
    let profile o = Telemetry.profiler o.Execution.telemetry in
    let op_ns = Array.map (fun (ns, _, _, _, _) -> ns) results in
    let op_kernel = Array.map (fun (_, k, _, _, _) -> k) results in
    { op_ns;
      op_kernel;
      op_digest;
      op_allocs = Array.map allocations outcomes;
      op_bad =
        Array.map (fun (_, _, o, _, starved) -> starved || not (reports_ok app o)) results;
      wall_ns;
      steps_ns = op_ns;
      steps_kernel = op_kernel;
      digest =
        H.counters (Array.fold_left H.int H.init op_digest)
          (List.map (fun (a, b) -> (string_of_int a, b)) (Persist.keys store));
      counters =
        sum_counters
          (Array.to_list
             (Array.map
                (fun o -> Metrics.counters_list (Telemetry.metrics o.Execution.telemetry))
                outcomes));
      vcycles = Array.fold_left (fun s o -> s + o.Execution.cycles) 0 outcomes;
      tool_vcycles =
        Array.fold_left (fun s o -> s + Profiler.tool_total (profile o)) 0 outcomes;
      store;
      history_bytes = 0 }
  in
  { name; ops; quick_ops = max 1 (ops / 50); ladder_ops; asan_ops = ladder_ops;
    recorder = diag;
    setup = (fun ~dir:_ () -> load_program app; fun () -> ());
    prepare = (fun () -> Engine.precompile (Buggy_app.program app));
    run }

(* ---- serve-zziplib ---- *)

let serve_workload ~ops ~ladder_ops =
  let app = app "zziplib" in
  let serve_config ~domains ~dir ~seed ~users =
    Serve.config ~domains ~epoch_size:32
      ~history_dir:(Filename.concat dir "history")
      ~status_path:(Filename.concat dir "status.json")
      ~checkpoint_path:(Filename.concat dir "checkpoint.json")
      ~checkpoint_every:64
      (Workload.make ~benign_frac:0.25 ~base_seed:(op_seed seed 0) ~users ())
  in
  let start cfg ~execute =
    match Serve.start cfg ~execute with
    | Ok s -> s
    | Error m -> failwith ("Serve.start: " ^ m)
  in
  let setup ~dir () =
    load_program app;
    let d = fresh_dir dir in
    let s =
      start
        (serve_config ~domains:1 ~dir:d ~seed:1 ~users:1)
        ~execute:(Execution.executor ~app ~config:Config.csod_default ~engine:Engine.Vm ())
    in
    fun () ->
      ignore (Serve.finish s);
      remove_tree d
  in
  let run (mode : mode) ~seed ~ops:users ~quick:_ ~dir =
    let op_ns = Array.make users 0 and op_digest = Array.make users 0 in
    let op_allocs = Array.make users 0 and op_bad = Array.make users false in
    let op_kernel = Array.make users 0 and step_kernel = ref 0 in
    let inner =
      match mode.path with
      | Library ->
        Execution.executor ~app ~config:mode.config ~engine:Engine.Vm ()
      | Rebuilt span -> Rebuild.executor span ~app ~config:mode.config
    in
    (* Each uid owns its slots, so pool domains never write the same one. *)
    let execute ~(user : Workload.user) ~store =
      let t0 = now_ns () in
      let e = inner ~user ~store in
      let i = user.Workload.uid - 1 in
      op_ns.(i) <- now_ns () - t0;
      op_kernel.(i) <- !step_kernel;
      op_digest.(i) <-
        H.int
          (H.bool (H.int H.init e.Fleet.cycles) e.Fleet.detected)
          (match e.Fleet.source with Some s -> source_code s | None -> 0);
      op_allocs.(i) <- allocations e.Fleet.payload;
      op_bad.(i) <-
        (user.Workload.benign && e.Fleet.detected)
        || not (reports_ok app e.Fleet.payload);
      e
    in
    let d = fresh_dir dir in
    let s =
      start (serve_config ~domains:mode.domains ~dir:d ~seed ~users) ~execute
    in
    let step () =
      match mode.path with
      | Rebuilt span -> Span.with_span span "serve.step" (fun () -> Serve.step s)
      | Library -> Serve.step s
    in
    let steps = ref [] in
    let timed f =
      step_kernel := kernel mode;
      let t0 = now_ns () in
      let v = f () in
      steps := (now_ns () - t0, !step_kernel) :: !steps;
      v
    in
    let t0 = now_ns () in
    (* A service keeps one recorder for the whole run. *)
    let report =
      with_recorder mode.recorder (fun () ->
          while Serve.arrived s < users do
            timed step |> ignore
          done;
          timed (fun () -> Serve.finish s))
    in
    let wall_ns = now_ns () - t0 in
    let history_bytes = dir_bytes (Filename.concat d "history") in
    remove_tree d;
    let counters = Metrics.counters_list report.Fleet.metrics in
    let digest =
      let h = Array.fold_left H.int H.init op_digest in
      let h =
        match report.Fleet.first_catch with
        | Some c -> H.int (H.int h c.Fleet.user.Workload.uid) c.Fleet.epoch
        | None -> H.int h (-1)
      in
      let h = H.int (H.int h report.Fleet.detections) history_bytes in
      let h =
        List.fold_left (fun h (a, b) -> H.int (H.int h a) b) h
          (Persist.keys report.Fleet.store)
      in
      H.counters h counters
    in
    let steps = Array.of_list (List.rev !steps) in
    { op_ns; op_kernel; op_digest; op_allocs; op_bad; wall_ns;
      steps_ns = Array.map fst steps;
      steps_kernel = Array.map snd steps;
      digest; counters;
      vcycles = Profiler.total report.Fleet.profile;
      tool_vcycles = Profiler.tool_total report.Fleet.profile;
      store = report.Fleet.store;
      history_bytes }
  in
  { name = "serve-zziplib"; ops; quick_ops = max 1 (ops / 50); ladder_ops;
    asan_ops = ladder_ops;
    recorder = false; setup;
    prepare = (fun () -> Engine.precompile (Buggy_app.program app));
    run }

(* ---- stream-alloc ---- *)

let stream_profiles = [| "Bodytrack"; "MySQL"; "Swaptions" |]

let stream_workload =
  let profiles =
    Array.map (fun n -> Option.get (Perf_profile.by_name n)) stream_profiles
  in
  (* A trial runs [streams] streams per profile, each 1/[parts] as long as
     the profile's own and on its own seed, so that a step lasts 20-100 ms
     rather than seconds and the host's speed can be sampled before every
     one.  Each keeps the full stream's virtual compute per allocation.
     Quick runs take one stream per profile, 1/50 as long. *)
  let streams = 5 and parts = 20 in
  let stream ~quick i =
    let parts = if quick then 50 else parts in
    let p = profiles.(if quick then i else i / streams) in
    (* the allocations [Perf_driver.run] simulates of the whole stream *)
    let n = p.Perf_profile.allocations and most = Perf_driver.max_sim_allocations in
    let full = n / ((n + most - 1) / most) in
    let allocations = max 1 (full / parts) in
    { p with
      Perf_profile.allocations;
      runtime_sec =
        p.Perf_profile.runtime_sec *. float_of_int allocations /. float_of_int full }
  in
  (* What [Perf_driver.run] does before its first allocation. *)
  let setup ~dir:_ () =
    Array.iter (fun n -> ignore (Perf_profile.by_name n)) stream_profiles;
    let machine = Machine.create ~seed:1 () in
    let heap = Heap.create machine in
    ignore (Config.instantiate Config.csod_default ~machine ~heap ~seed:1 ());
    for w = 2 to profiles.(0).Perf_profile.threads do
      ignore (Threads.spawn (Machine.threads machine) ~name:(Printf.sprintf "worker%d" w))
    done;
    fun () -> ()
  in
  let run (mode : mode) ~seed ~ops ~quick ~dir:_ =
    let one i =
      let profile = stream ~quick i and seed = op_seed seed i in
      let kernel = kernel mode in
      let t0 = now_ns () in
      let r =
        with_recorder mode.recorder (fun () ->
            match mode.path with
            | Library -> Perf_driver.run ~profile ~config:mode.config ~seed ()
            | Rebuilt span ->
              Rebuild.perf_run span ~profile ~config:mode.config ~seed)
      in
      (now_ns () - t0, kernel, r)
    in
    let t0 = now_ns () in
    let results = Pool.map ~domains:mode.domains ops ~f:one in
    let wall_ns = now_ns () - t0 in
    let rs = Array.map (fun (_, _, r) -> r) results in
    let counters r = Metrics.counters_list (Telemetry.metrics r.Perf_driver.telemetry) in
    let digest (r : Perf_driver.result) =
      let h = H.int (H.int H.init r.Perf_driver.cycles) r.Perf_driver.watched_times in
      let h = H.int (H.int h r.Perf_driver.syscalls) r.Perf_driver.resident_kb in
      let h = H.int (H.int h r.Perf_driver.contexts_seen) r.Perf_driver.sim_allocations in
      H.counters (H.bool h r.Perf_driver.detected) (counters r)
    in
    let op_digest = Array.map digest rs in
    let op_ns = Array.map (fun (ns, _, _) -> ns) results in
    let op_kernel = Array.map (fun (_, k, _) -> k) results in
    { op_ns;
      op_kernel;
      op_digest;
      op_allocs = Array.map (fun r -> r.Perf_driver.sim_allocations) rs;
      (* the Table IV workloads are bug-free *)
      op_bad = Array.map (fun r -> r.Perf_driver.detected) rs;
      wall_ns;
      steps_ns = op_ns;
      steps_kernel = op_kernel;
      digest = Array.fold_left H.int H.init op_digest;
      counters = sum_counters (Array.to_list (Array.map counters rs));
      vcycles = Array.fold_left (fun s r -> s + r.Perf_driver.cycles) 0 rs;
      tool_vcycles =
        Array.fold_left
          (fun s r ->
            s + Profiler.tool_total (Telemetry.profiler r.Perf_driver.telemetry))
          0 rs;
      store = Persist.create ();
      history_bytes = 0 }
  in
  (* Streams run profile by profile.  The ladder leaves out Swaptions to
     bound the traced pass, and ASan runs on Bodytrack alone. *)
  let n = Array.length stream_profiles in
  { name = "stream-alloc"; ops = n * streams; quick_ops = n; ladder_ops = 2 * streams;
    asan_ops = streams; recorder = false; setup; prepare = (fun () -> ()); run }

let all =
  [ serve_workload ~ops:15_000 ~ladder_ops:7_500;
    exec_workload ~name:"exec-heartbleed" ~app_name:"heartbleed" ~ops:150
      ~ladder_ops:75 ~diag:false;
    exec_workload ~name:"diag-mysql" ~app_name:"mysql" ~ops:20 ~ladder_ops:10
      ~diag:true;
    stream_workload ]

let find name = List.find_opt (fun w -> w.name = name) all
