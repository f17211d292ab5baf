(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section V), plus the ablation study.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- table2 --runs 200
     dune exec bench/main.exe -- fig7 table5

   Commands: table1 table2 table3 table4 table5 fig6 fig7 evidence fleet
   ablate syscalls.  `--runs N` controls the Table II / ablation execution
   counts (default 1000 / 200, as in the paper).

   `metrics` is an extra, explicit-only target (not part of the default
   everything run): it prints one JSONL record per workload with the run's
   metrics registry and cycle attribution — machine-readable counterparts
   of the tables above.  Schema: csod.bench.metrics/2.

   `fleet`, when requested by name, likewise switches to JSONL: each row
   (schema csod.bench.fleet/1) runs the parallel fleet simulator with 1
   domain and with a domain pool, checks the two reports are identical,
   and records the measured wall-clock speedup.  In the default
   everything run it prints the human-readable first-detection table
   instead.

   `resilience` (explicit-only, JSONL) sweeps the deterministic fault
   injector over a range of rates and emits one csod.bench.resilience/1
   row per (app, rate): the detection-rate-vs-fault-rate curve.

   `throughput` (explicit-only, JSONL) times the single-execution hot
   paths — malloc, free, read, write, trap, a watchpoint's install and
   removal — in real nanoseconds and
   emits one csod.bench.throughput/2 row per (op, mode).  This is the
   `make perf` target.

   `exec` (explicit-only, JSONL) times end-to-end executions/sec of the
   AST interpreter against the bytecode VM over app and pure-compute
   kernel workloads, serial and metrics modes, and emits one
   csod.bench.exec/1 row per (workload, mode) with the vm-over-interp
   speedup, each engine timed as its fastest batch of executions.  This
   is the `make engines` target. *)

let progress fmt = Printf.ksprintf (fun s -> Printf.eprintf "  .. %s\n%!" s) fmt

let section title = Printf.printf "\n==== %s ====\n\n%!" title

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)

let table1 () =
  section "Table I: applications used for effectiveness evaluation";
  let t =
    Table_fmt.create ~title:"TABLE I"
      ~columns:[ ("Application", Table_fmt.Left); ("Vulnerability", Table_fmt.Left);
                 ("Reference", Table_fmt.Left) ]
  in
  List.iter
    (fun (r : Characteristics.table1_row) ->
      Table_fmt.add_row t [ r.Characteristics.app; r.Characteristics.vulnerability;
                            r.Characteristics.reference ])
    (Characteristics.table1 ());
  Table_fmt.print t

(* ------------------------------------------------------------------ *)
(* Table II                                                            *)

(* Paper values for side-by-side comparison (out of 1,000). *)
let paper_table2 =
  [ ("Gzip", (1000, 1000, 1000)); ("Heartbleed", (0, 364, 396));
    ("Libdwarf", (1000, 480, 459)); ("LibHX", (1000, 929, 885));
    ("Libtiff", (1000, 1000, 1000)); ("Memcached", (0, 163, 183));
    ("MySQL", (0, 161, 174)); ("Polymorph", (1000, 1000, 1000));
    ("Zziplib", (0, 110, 102)) ]

let table2 ~runs () =
  section
    (Printf.sprintf "Table II: detections out of %d executions per policy" runs);
  let rows = Effectiveness.table2 ~runs ~progress:(progress "%s") () in
  let t =
    Table_fmt.create
      ~title:"TABLE II (paper values, scaled to the run count, in brackets)"
      ~columns:[ ("Application", Table_fmt.Left); ("Naive", Table_fmt.Right);
                 ("Random", Table_fmt.Right); ("Near-FIFO", Table_fmt.Right) ]
  in
  List.iter
    (fun (r : Effectiveness.row) ->
      let pn, pr, pf =
        match List.assoc_opt r.Effectiveness.app_name paper_table2 with
        | Some (a, b, c) -> (a * runs / 1000, b * runs / 1000, c * runs / 1000)
        | None -> (0, 0, 0)
      in
      Table_fmt.add_row t
        [ r.Effectiveness.app_name;
          Printf.sprintf "%d [%d]" r.Effectiveness.naive pn;
          Printf.sprintf "%d [%d]" r.Effectiveness.random pr;
          Printf.sprintf "%d [%d]" r.Effectiveness.near_fifo pf ])
    rows;
  Table_fmt.add_separator t;
  let an, ar, af = Effectiveness.average_rate rows in
  Table_fmt.add_row t
    [ "Average rate"; Table_fmt.fmt_percent an; Table_fmt.fmt_percent ar;
      Table_fmt.fmt_percent af ];
  Table_fmt.print t;
  Printf.printf
    "Paper: random and near-FIFO detect between 10%% and 100%% per app, 58%% on average.\n"

(* ------------------------------------------------------------------ *)
(* Table III                                                           *)

let paper_table3 =
  [ ("Gzip", (1, 1, 1, 1)); ("Heartbleed", (307, 5403, 273, 5392));
    ("Libdwarf", (26, 152, 24, 147)); ("LibHX", (4, 5, 1, 1));
    ("Libtiff", (1, 1, 1, 1)); ("Memcached", (74, 442, 74, 442));
    ("MySQL", (488, 57464, 445, 57356)); ("Polymorph", (1, 1, 1, 1));
    ("Zziplib", (13, 17, 13, 17)) ]

let table3 () =
  section "Table III: allocation census of the buggy applications (oracle runs)";
  let t =
    Table_fmt.create ~title:"TABLE III (paper values in brackets)"
      ~columns:[ ("Application", Table_fmt.Left);
                 ("Contexts", Table_fmt.Right); ("Allocations", Table_fmt.Right);
                 ("Ctx before", Table_fmt.Right); ("Allocs before", Table_fmt.Right);
                 ("Class", Table_fmt.Left); ("Shared pairs", Table_fmt.Right) ]
  in
  List.iter
    (fun (r : Characteristics.table3_row) ->
      let pc, pa, pbc, pba =
        match List.assoc_opt r.Characteristics.app paper_table3 with
        | Some v -> v
        | None -> (0, 0, 0, 0)
      in
      Table_fmt.add_row t
        [ r.Characteristics.app;
          Printf.sprintf "%d [%d]" r.Characteristics.total_contexts pc;
          Printf.sprintf "%s [%s]"
            (Table_fmt.fmt_int r.Characteristics.total_allocations)
            (Table_fmt.fmt_int pa);
          Printf.sprintf "%d [%d]" r.Characteristics.before_contexts pbc;
          Printf.sprintf "%s [%s]"
            (Table_fmt.fmt_int r.Characteristics.before_allocations)
            (Table_fmt.fmt_int pba);
          r.Characteristics.detected_kind;
          Printf.sprintf "%d (%.1f%%)" r.Characteristics.ambiguous_keys
            (100.0 *. float_of_int r.Characteristics.ambiguous_allocations
            /. float_of_int (max 1 r.Characteristics.total_allocations)) ])
    (Characteristics.table3 ());
  Table_fmt.print t;
  Printf.printf
    "Note: \"before\" columns count at the overflowed object's allocation\n\
     (inclusive).  Libdwarf's paper row counts up to the overflow event\n\
     instead; see EXPERIMENTS.md.  \"Shared pairs\" counts the (call site,\n\
     stack offset) pairs that reach more than one full chain, and the\n\
     share of allocations made under them.\n"

(* ------------------------------------------------------------------ *)
(* Table IV                                                            *)

let paper_wt =
  [ ("Blackscholes", 4); ("Bodytrack", 325); ("Canneal", 79); ("Dedup", 182);
    ("Facesim", 369); ("Ferret", 346); ("Fluidanimate", 5); ("Freqmine", 218);
    ("Raytrace", 561); ("Streamcluster", 30); ("Swaptions", 370); ("Vips", 259);
    ("X264", 37); ("Aget", 16); ("Apache", 27); ("Memcached", 79);
    ("MySQL", 1362); ("Pbzip2", 58); ("Pfscan", 5) ]

let table4 () =
  section "Table IV: characteristics of the performance applications";
  let t =
    Table_fmt.create ~title:"TABLE IV (paper WT in brackets)"
      ~columns:[ ("Application", Table_fmt.Left); ("LOC", Table_fmt.Right);
                 ("CC", Table_fmt.Right); ("Allocations", Table_fmt.Right);
                 ("WT", Table_fmt.Right); ("sim 1/", Table_fmt.Right) ]
  in
  List.iter
    (fun (r : Characteristics.table4_row) ->
      let pwt = Option.value ~default:0 (List.assoc_opt r.Characteristics.app paper_wt) in
      Table_fmt.add_row t
        [ r.Characteristics.app;
          Table_fmt.fmt_int r.Characteristics.loc;
          Table_fmt.fmt_int r.Characteristics.contexts;
          Table_fmt.fmt_int r.Characteristics.allocations;
          Printf.sprintf "%d [%d]" r.Characteristics.watched_times pwt;
          string_of_int r.Characteristics.sim_scale ])
    (Characteristics.table4 ~progress:(progress "%s") ());
  Table_fmt.print t

(* ------------------------------------------------------------------ *)
(* Table V                                                             *)

let paper_table5 =
  [ ("Blackscholes", (613, 103, 110)); ("Bodytrack", (34, 151, 1079));
    ("Canneal", (940, 144, 169)); ("Dedup", (1599, 111, 96));
    ("Facesim", (2422, 102, 133)); ("Ferret", (68, 133, 610));
    ("Fluidanimate", (408, 106, 120)); ("Freqmine", (1241, 102, 0));
    ("Raytrace", (1135, 115, 222)); ("Streamcluster", (111, 115, 136));
    ("Swaptions", (9, 289, 4178)); ("Vips", (59, 133, 570));
    ("X264", (486, 104, 142)); ("Aget", (7, 359, 320)); ("Apache", (5, 523, 477));
    ("Memcached", (7, 391, 359)); ("MySQL", (124, 117, 317));
    ("Pbzip2", (128, 116, 322)); ("Pfscan", (4044, 91, 102)) ]

let table5 () =
  section "Table V: peak memory usage";
  let rows = Overhead.table5 ~progress:(progress "%s") () in
  let t =
    Table_fmt.create ~title:"TABLE V (paper percentages in brackets)"
      ~columns:[ ("Application", Table_fmt.Left); ("Original Kb", Table_fmt.Right);
                 ("CSOD Kb", Table_fmt.Right); ("CSOD %", Table_fmt.Right);
                 ("ASan Kb", Table_fmt.Right); ("ASan %", Table_fmt.Right) ]
  in
  let add (r : Overhead.table5_row) =
    let _, pc, pa =
      Option.value ~default:(0, 0, 0) (List.assoc_opt r.Overhead.app paper_table5)
    in
    Table_fmt.add_row t
      [ r.Overhead.app;
        Table_fmt.fmt_int r.Overhead.original_kb;
        Table_fmt.fmt_int r.Overhead.csod_kb;
        Printf.sprintf "%d [%d]" r.Overhead.csod_pct pc;
        Table_fmt.fmt_int r.Overhead.asan_kb;
        Printf.sprintf "%d [%d]" r.Overhead.asan_pct pa ]
  in
  List.iter add rows;
  Table_fmt.add_separator t;
  add (Overhead.table5_totals rows);
  Table_fmt.print t;
  Printf.printf "Paper totals: CSOD 105%%, ASan 143%%.\n"

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)

let fig6 () =
  section "Figure 6: bug report for Heartbleed";
  let app = Option.get (Buggy_app.by_name "Heartbleed") in
  match
    Execution.run_until_detected ~app ~config:Config.csod_default ~max_runs:64
  with
  | None -> Printf.printf "Heartbleed not detected within 64 executions (unexpected)\n"
  | Some (n, o) ->
    Printf.printf "(detected on execution %d)\n\n" n;
    List.iter
      (fun r -> print_endline (Report.format ~symbolize:(Execution.symbolizer app) r))
      o.Execution.watchpoint_reports

(* ------------------------------------------------------------------ *)
(* Figure 7                                                            *)

let fig7 () =
  section "Figure 7: performance overhead of CSOD vs ASan (normalized runtime)";
  let rows = Overhead.fig7 ~progress:(progress "%s") () in
  let t =
    Table_fmt.create ~title:"FIGURE 7 (series as normalized runtime, 1.00 = baseline)"
      ~columns:[ ("Application", Table_fmt.Left);
                 ("CSOD w/o Evidence", Table_fmt.Right); ("CSOD", Table_fmt.Right);
                 ("ASan min-rz", Table_fmt.Right); ("ASan", Table_fmt.Right) ]
  in
  List.iter
    (fun (r : Overhead.fig7_row) ->
      Table_fmt.add_row t
        [ r.Overhead.app;
          Table_fmt.fmt_float r.Overhead.csod_no_evidence;
          Table_fmt.fmt_float r.Overhead.csod;
          Table_fmt.fmt_float r.Overhead.asan_min;
          Table_fmt.fmt_float r.Overhead.asan ])
    rows;
  Table_fmt.add_separator t;
  let a, b, c, d = Overhead.fig7_averages rows in
  Table_fmt.add_row t
    [ "Average"; Table_fmt.fmt_float a; Table_fmt.fmt_float b; Table_fmt.fmt_float c;
      Table_fmt.fmt_float d ];
  Table_fmt.print t;
  Printf.printf
    "Paper: CSOD 6.7%% average (4.3%% without evidence); ASan ~39%% with minimal\n\
     redzones; CSOD exceeds 10%% only on Canneal, Ferret and Raytrace.\n"

(* ------------------------------------------------------------------ *)
(* Evidence (Section V-A2) and fleet detection                         *)

let evidence () =
  section "Section V-A2: evidence-based over-write detection across two executions";
  let t =
    Table_fmt.create ~title:"EVIDENCE (over-write apps)"
      ~columns:[ ("Application", Table_fmt.Left); ("Run 1 watchpoint", Table_fmt.Left);
                 ("Run 1 evidence", Table_fmt.Left); ("Run 2 watchpoint", Table_fmt.Left) ]
  in
  List.iter
    (fun (r : Evidence.row) ->
      let b v = if v then "yes" else "no" in
      Table_fmt.add_row t
        [ r.Evidence.app; b r.Evidence.first_run_watchpoint;
          b r.Evidence.first_run_evidence; b r.Evidence.second_run_watchpoint ])
    (Evidence.second_execution ());
  Table_fmt.print t;
  Printf.printf
    "Paper: every over-write is detected by the second execution at the latest.\n"

let fleet_table () =
  section "Fleet simulation: executions needed until first detection (shared store)";
  let t =
    Table_fmt.create ~title:"FLEET (near-FIFO, evidence on, up to 64 users)"
      ~columns:[ ("Application", Table_fmt.Left); ("Detected at run", Table_fmt.Right);
                 ("Mechanism", Table_fmt.Left) ]
  in
  List.iter
    (fun app ->
      match Evidence.fleet ~app ~users:64 () with
      | Some (n, src) ->
        Table_fmt.add_row t
          [ app.Buggy_app.name; string_of_int n; Report.source_name src ]
      | None -> Table_fmt.add_row t [ app.Buggy_app.name; ">64"; "-" ])
    (Buggy_app.all ());
  Table_fmt.print t

(* Explicit-only JSONL twin of the fleet table: run the parallel fleet
   simulator serially and on a domain pool, check the reports agree, and
   emit one row per app with the measured wall-clock speedup.  Schema:
   csod.bench.fleet/1. *)

let fleet_bench () =
  let parallel_domains = max 2 (Pool.default_domains ()) in
  let bench_one ~users (app : Buggy_app.t) =
    progress "fleet: %s, %d users, 1 vs %d domains" app.Buggy_app.name users
      parallel_domains;
    let config = Config.csod_default in
    let workload = Workload.make ~benign_frac:0.25 ~users () in
    let simulate domains =
      Pool.timed (fun () ->
          Fleet.run
            (Fleet.config ~domains ~epoch_size:32 workload)
            ~execute:(Execution.executor ~app ~config ()))
    in
    let serial, wall_serial = simulate 1 in
    let parallel, wall_parallel = simulate parallel_domains in
    let identical =
      Fleet.detection_uids serial = Fleet.detection_uids parallel
      && Persist.keys serial.Fleet.store = Persist.keys parallel.Fleet.store
      && Metrics.counters_list serial.Fleet.metrics
         = Metrics.counters_list parallel.Fleet.metrics
    in
    Schemas.emit_row Schemas.bench_fleet
      [ ("app", `String app.Buggy_app.name);
        ("config", `String (Config.label config));
        ("users", `Int users);
        ("epoch_size", `Int 32);
        ("benign_frac", `Float 0.25);
        ("domains", `Int parallel_domains);
        ("detections", `Int serial.Fleet.detections);
        ("first_catch",
         match serial.Fleet.first_catch with
         | Some s ->
           `Assoc
             [ ("uid", `Int s.Fleet.user.Workload.uid);
               ("epoch", `Int s.Fleet.epoch) ]
         | None -> `Null);
        ("store_contexts", `Int (Persist.count serial.Fleet.store));
        ("deterministic", `Bool identical);
        ("wall_seconds_serial", `Float wall_serial);
        ("wall_seconds_parallel", `Float wall_parallel);
        ("speedup", `Float (wall_serial /. max 1e-9 wall_parallel)) ]
  in
  List.iter
    (fun (name, users) ->
      bench_one ~users (Option.get (Buggy_app.by_name name)))
    [ ("Zziplib", 1000); ("Memcached", 512); ("Heartbleed", 192) ]

(* ------------------------------------------------------------------ *)
(* Engine bench: end-to-end executions/sec, interpreter vs VM (JSONL)  *)

(* Explicit-only target.  Each row times complete executions of one
   workload under both engines and records executions/sec plus the
   vm-over-interp speedup.  Two workload kinds: "app" rows run a buggy
   application through the full CSOD detection path (allocator-bound —
   most of the time is malloc/canary/watchpoint work shared by both
   engines, so the speedup is modest), "kernel" rows run a pure-compute
   MiniC program where engine dispatch dominates and the VM's advantage
   shows undiluted.  [mode] is "serial" (bare run) or "metrics" (flight
   recorder armed; the kernel also takes telemetry snapshots).  Both
   engines are checked to agree on the workload's observables before
   timing and the row carries the verdict.  Schema: csod.bench.exec/1.

   A batch of [runs] executions can take a few milliseconds (LibHX's
   1,500 take ~9 ms), too short to time once on a shared host.  So each
   engine's figure is its fastest batch: the two engines' batches take
   turns, and each engine keeps running batches until it has spent
   [exec_budget] seconds and run [exec_min_batches] of them.  A slow
   stretch of the host then reaches both engines alike, and a row's
   [*_wall_seconds] is one batch's time when undisturbed. *)
let exec_budget = 0.5
let exec_min_batches = 3

(* Integer-mixing kernel: tight loops, calls, branches and shifts, no
   allocation — the dispatch-bound regime the bytecode VM targets. *)
let exec_kernel_src =
  "fn mix(a, b) {\n\
  \  var h = a * 31 + b;\n\
  \  h = h ^ (h >> 7);\n\
  \  h = h + (h << 3);\n\
  \  return h;\n\
   }\n\
   fn main() {\n\
  \  var acc = 0;\n\
  \  var i = 0;\n\
  \  while (i < 20000) {\n\
  \    var j = 0;\n\
  \    for (j = 0; j < 5; j = j + 1) {\n\
  \      acc = mix(acc, i + j);\n\
  \      if (acc & 1) { acc = acc + 3; } else { acc = acc - 1; }\n\
  \    }\n\
  \    i = i + 1;\n\
  \  }\n\
  \  return acc;\n\
   }\n"

let exec_bench () =
  let kernel_program =
    Program.load_exn
      [ { Program.file = "kernel.mc"; module_name = "kernel";
          source = exec_kernel_src } ]
  in
  let kernel_once ~metrics engine =
    let machine = Machine.create ~seed:1 () in
    if metrics then
      Telemetry.set_snapshot_interval (Machine.telemetry machine)
        ~cycles:50_000_000;
    let heap = Heap.create machine in
    let r =
      Engine.run ~engine ~machine ~tool:(Tool.baseline heap)
        ~program:kernel_program ~app_seed:1 ()
    in
    Sparse_mem.release (Machine.mem machine);
    (r.Interp.return_value, Clock.cycles (Machine.clock machine))
  in
  let app_once app ~metrics:_ engine =
    let o = Execution.run ~app ~config:Config.csod_default ~engine ~seed:1 () in
    ((if o.Execution.detected then 1 else 0), o.Execution.cycles)
  in
  (* The fastest batch of each engine, the two taking turns (see above). *)
  let time ~mode ~runs once =
    let metrics = mode = `Metrics in
    let batch engine =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to runs do
        ignore (once ~metrics engine)
      done;
      Unix.gettimeofday () -. t0
    in
    let body () =
      (* warm runs: the VM pays its one-time bytecode compile here *)
      ignore (once ~metrics Engine.Interp);
      ignore (once ~metrics Engine.Vm);
      let engines = [| Engine.Interp; Engine.Vm |] in
      let best = [| infinity; infinity |] and spent = [| 0.; 0. |] in
      let batches = [| 0; 0 |] in
      let wanted e = batches.(e) < exec_min_batches || spent.(e) < exec_budget in
      while wanted 0 || wanted 1 do
        for e = 0 to 1 do
          if wanted e then begin
            let w = batch engines.(e) in
            best.(e) <- Float.min best.(e) w;
            spent.(e) <- spent.(e) +. w;
            batches.(e) <- batches.(e) + 1
          end
        done
      done;
      (best.(0), best.(1))
    in
    match mode with
    | `Serial -> body ()
    | `Metrics -> Flight_recorder.with_recorder (Flight_recorder.create ()) body
  in
  let bench_one ~workload ~kind ~runs once =
    let (vi, ci) = once ~metrics:false Engine.Interp in
    let (vv, cv) = once ~metrics:false Engine.Vm in
    let identical = vi = vv && ci = cv in
    List.iter
      (fun (mode_name, mode) ->
        progress "exec: %s, %s, batches of %d runs" workload mode_name runs;
        let wi, wv = time ~mode ~runs once in
        let rate w = float_of_int runs /. max 1e-9 w in
        Schemas.emit_row Schemas.bench_exec
          [ ("workload", `String workload);
            ("kind", `String kind);
            ("mode", `String mode_name);
            ("runs", `Int runs);
            ("cycles", `Int ci);
            ("deterministic", `Bool identical);
            ("interp_wall_seconds", `Float wi);
            ("vm_wall_seconds", `Float wv);
            ("interp_execs_per_sec", `Float (rate wi));
            ("vm_execs_per_sec", `Float (rate wv));
            ("speedup", `Float (wi /. max 1e-9 wv)) ])
      [ ("serial", `Serial); ("metrics", `Metrics) ]
  in
  bench_one ~workload:"kernel-mix" ~kind:"kernel" ~runs:10 kernel_once;
  List.iter
    (fun (name, runs) ->
      let app = Option.get (Buggy_app.by_name name) in
      bench_one ~workload:name ~kind:"app" ~runs (app_once app))
    [ ("Zziplib", 400); ("LibHX", 1500); ("Heartbleed", 15) ]

(* ------------------------------------------------------------------ *)
(* Resilience: detection rate under injected faults (JSONL)            *)

(* Explicit-only target: one row per (app, fault rate) running the fleet
   simulator with the deterministic fault injector armed at the same rate
   on every relevant point.  The curve quantifies graceful degradation —
   how much detection survives when perf_event_open is contended, traps
   are dropped, and worker domains crash.  Schema: csod.bench.resilience/1. *)

(* Active response rows, riding the resilience target: how many buggy
   executions run to completion under the failure-oblivious policy, and
   what the armed squash/override hooks cost when nothing overflows.
   Schema: csod.bench.respond/1. *)

let respond_survival () =
  let config = Config.csod_default in
  let runs = 10 in
  List.iter
    (fun (app : Buggy_app.t) ->
      progress "respond: %s, %d oblivious executions" app.Buggy_app.name runs;
      let outcomes =
        List.init runs (fun i ->
            Execution.run ~app ~config ~seed:(i + 1)
              ~respond:Respond.Oblivious ())
      in
      let count p = List.length (List.filter p outcomes) in
      let survived = count (fun (o : Execution.outcome) -> o.Execution.survived) in
      let detected = count (fun (o : Execution.outcome) -> o.Execution.detected) in
      let sum f =
        List.fold_left
          (fun acc (o : Execution.outcome) ->
            acc + match o.Execution.respond with Some s -> f s | None -> 0)
          0 outcomes
      in
      Schemas.emit_row Schemas.bench_respond
        [ ("metric", `String "survival");
          ("app", `String app.Buggy_app.name);
          ("mode", `String "oblivious");
          ("runs", `Int runs);
          ("survived", `Int survived);
          ("survival_rate", `Float (float_of_int survived /. float_of_int runs));
          ("detections", `Int detected);
          ("redirected_reads", `Int (sum (fun s -> s.Respond.redirected_reads)));
          ("redirected_writes", `Int (sum (fun s -> s.Respond.redirected_writes)));
          ("escapes", `Int (sum (fun s -> s.Respond.escapes))) ])
    (Buggy_app.all ())

(* The purity pin guarantees oblivious mode changes no virtual cycle, so
   its cost is purely host-side: the armed pre-store value capture on every
   write.  Measured serially on benign input — no overflow, no redirects —
   normalized per machine memory access. *)
let respond_overhead () =
  let config = Config.csod_default in
  let app = Option.get (Buggy_app.by_name "Memcached") in
  let runs = 30 in
  progress "respond: overhead, %s benign, %d serial runs per mode"
    app.Buggy_app.name runs;
  let accesses_of (o : Execution.outcome) =
    match
      List.assoc_opt "machine.accesses"
        (Metrics.counters_list (Telemetry.metrics o.Execution.telemetry))
    with
    | Some n -> n
    | None -> 0
  in
  let one ?respond seed =
    let t0 = Unix.gettimeofday () in
    let o =
      Execution.run ~app ~config ~input:Execution.Benign ~seed ?respond ()
    in
    (Unix.gettimeofday () -. t0, accesses_of o)
  in
  (* Warm both paths, then interleave the modes per seed so host drift
     (frequency scaling, page cache) cancels out of each pair; the median
     over the paired per-seed ratios shrugs off GC and scheduler
     outliers.  Oblivious mode is observably pure, so both runs of a pair
     perform the identical access sequence. *)
  ignore (one 1);
  ignore (one ~respond:Respond.Oblivious 1);
  let median a =
    let s = Array.copy a in
    Array.sort compare s;
    s.(Array.length s / 2)
  in
  let pairs =
    Array.init runs (fun i ->
        let seed = i + 1 in
        let bs, ops = one seed in
        let os, _ = one ~respond:Respond.Oblivious seed in
        let ops = float_of_int (max 1 ops) in
        (bs *. 1e9 /. ops, os *. 1e9 /. ops))
  in
  let baseline_ns = median (Array.map fst pairs) in
  let oblivious_ns = median (Array.map snd pairs) in
  let ratio = median (Array.map (fun (b, o) -> o /. b) pairs) in
  Schemas.emit_row Schemas.bench_respond
    [ ("metric", `String "overhead");
      ("app", `String app.Buggy_app.name);
      ("mode", `String "oblivious");
      ("runs", `Int runs);
      ("ns_per_op", `Float oblivious_ns);
      ("baseline_ns_per_op", `Float baseline_ns);
      ("overhead_frac", `Float (ratio -. 1.0)) ]

let resilience () =
  let domains = max 2 (Pool.default_domains ()) in
  let users = 300 in
  let rates = [ 0.0; 0.05; 0.15; 0.3; 0.6; 1.0 ] in
  let bench_one (app : Buggy_app.t) rate =
    let spec =
      if rate = 0.0 then "seed=7"
      else
        Printf.sprintf "seed=7,ebusy=%g,trap-drop=%g,worker-crash=%g" rate rate
          rate
    in
    let plan =
      match Fault_plan.of_string spec with Ok p -> p | Error m -> failwith m
    in
    progress "resilience: %s, %d users, faults %s" app.Buggy_app.name users
      (Fault_plan.to_string plan);
    let config = Config.csod_default in
    let workload = Workload.make ~benign_frac:0.25 ~users () in
    let r =
      Fleet.run
        (Fleet.config ~domains ~epoch_size:32 ~faults:plan workload)
        ~execute:(Execution.executor ~app ~config ~faults:plan ())
    in
    let buggy =
      Array.fold_left
        (fun n s -> if s.Fleet.user.Workload.benign then n else n + 1)
        0 r.Fleet.seats
    in
    let degraded = ref 0 and injected = ref 0 in
    Array.iter
      (fun s ->
        let (o : Execution.outcome) = s.Fleet.exec.Fleet.payload in
        if o.Execution.degraded then incr degraded;
        match o.Execution.faults with
        | Some inj -> injected := !injected + Fault_injector.total inj
        | None -> ())
      r.Fleet.seats;
    let crashes =
      match r.Fleet.faults with
      | Some inj -> Fault_injector.count inj Fault_plan.Worker_crash
      | None -> 0
    in
    Schemas.emit_row Schemas.bench_resilience
      [ ("app", `String app.Buggy_app.name);
        ("config", `String (Config.label config));
        ("users", `Int users);
        ("benign_frac", `Float 0.25);
        ("domains", `Int domains);
        ("epoch_size", `Int 32);
        ("fault_rate", `Float rate);
        ("faults", `String (Fault_plan.to_string plan));
        ("detections", `Int r.Fleet.detections);
        ("detection_rate",
         `Float (float_of_int r.Fleet.detections /. float_of_int (max 1 buggy)));
        ("degraded_executions", `Int !degraded);
        ("faults_injected", `Int (!injected + crashes));
        ("worker_crashes", `Int crashes);
        ("store_contexts", `Int (Persist.count r.Fleet.store));
        ("wall_seconds", `Float r.Fleet.wall_seconds) ]
  in
  List.iter
    (fun name ->
      let app = Option.get (Buggy_app.by_name name) in
      List.iter (fun rate -> bench_one app rate) rates)
    [ "Zziplib"; "Gzip" ];
  respond_survival ();
  respond_overhead ()

(* ------------------------------------------------------------------ *)
(* Ablation                                                            *)

let ablate ~runs () =
  section (Printf.sprintf "Ablation: one mechanism disabled at a time (%d runs)" runs);
  List.iter
    (fun (v : Ablation.variant) ->
      Printf.printf "  %-22s %s\n" v.Ablation.name v.Ablation.note)
    (Ablation.variants ());
  print_newline ();
  let rows = Ablation.run ~runs ~progress:(progress "%s") () in
  let apps = List.map (fun a -> a.Buggy_app.name) (Ablation.apps_under_test ()) in
  let t =
    Table_fmt.create ~title:"ABLATION (watchpoint detections)"
      ~columns:
        (("Variant", Table_fmt.Left)
        :: List.map (fun a -> (a, Table_fmt.Right)) apps)
  in
  List.iter
    (fun (r : Ablation.row) ->
      Table_fmt.add_row t
        (r.Ablation.variant
        :: List.map
             (fun a ->
               string_of_int
                 (Option.value ~default:0 (List.assoc_opt a r.Ablation.detections)))
             apps))
    rows;
  Table_fmt.print t

(* ------------------------------------------------------------------ *)
(* Combined-syscall study (the paper's proposed OS optimization)       *)

let syscalls () =
  section
    "Combined-syscall study: Section V-B's proposed single-syscall install";
  let combined_params = { Params.default with Params.combined_syscall = true } in
  let t =
    Table_fmt.create
      ~title:"WATCHPOINT SYSCALL TRAFFIC (CSOD, default vs combined syscall)"
      ~columns:[ ("Application", Table_fmt.Left); ("WT", Table_fmt.Right);
                 ("syscalls", Table_fmt.Right); ("combined", Table_fmt.Right);
                 ("overhead", Table_fmt.Right); ("overhead'", Table_fmt.Right) ]
  in
  List.iter
    (fun name ->
      let p = Option.get (Perf_profile.by_name name) in
      let base = Perf_driver.run ~profile:p ~config:Config.Baseline () in
      let std = Perf_driver.run ~profile:p ~config:Config.csod_default () in
      let comb = Perf_driver.run ~profile:p ~config:(Config.Csod combined_params) () in
      Table_fmt.add_row t
        [ p.Perf_profile.name;
          Table_fmt.fmt_int std.Perf_driver.watched_times;
          Table_fmt.fmt_int std.Perf_driver.syscalls;
          Table_fmt.fmt_int comb.Perf_driver.syscalls;
          Table_fmt.fmt_float (Perf_driver.overhead ~baseline:base std);
          Table_fmt.fmt_float (Perf_driver.overhead ~baseline:base comb) ])
    [ "Ferret"; "Vips"; "MySQL"; "Memcached"; "Bodytrack" ];
  Table_fmt.print t;
  Printf.printf
    "The paper: \"eight system calls are used to install and remove a\n\
     watchpoint for each thread.  We could further reduce the performance\n\
     overhead by combining these system calls into one custom system call,\n\
     but this requires modification of the underlying OS.\"\n"

(* ------------------------------------------------------------------ *)
(* Machine-readable telemetry export (JSONL, stable schema)            *)

(* One line per workload on stdout; everything human-oriented goes to
   stderr so the stream can be piped straight into jq.  The schema is
   versioned: additive changes keep /1, field renames or removals bump it. *)

let metrics_row ~kind ~app ~detected ~cycles ?tele_cycles tele =
  (* [cycles] is the workload's reported (possibly extrapolated) runtime;
     [tele_cycles] is the raw clock total the telemetry was charged
     against, when the two differ (subsampled perf streams). *)
  let tele_cycles = Option.value ~default:cycles tele_cycles in
  Schemas.emit_row Schemas.bench_metrics
    [ ("kind", `String kind);
      ("app", `String app);
      ("config", `String "csod-near-fifo");
      ("seed", `Int 1);
      ("detected", `Bool detected);
      ("cycles", `Int cycles);
      ("telemetry", Telemetry.to_json tele ~total_cycles:tele_cycles) ]

let metrics () =
  progress "metrics: buggy applications under CSOD (seed 1)";
  List.iter
    (fun (app : Buggy_app.t) ->
      let o = Execution.run ~app ~config:Config.csod_default () in
      metrics_row ~kind:"detection" ~app:app.Buggy_app.name
        ~detected:o.Execution.detected ~cycles:o.Execution.cycles
        o.Execution.telemetry)
    (Buggy_app.all ());
  progress "metrics: performance workloads under CSOD (seed 1)";
  List.iter
    (fun name ->
      let p = Option.get (Perf_profile.by_name name) in
      let r = Perf_driver.run ~profile:p ~config:Config.csod_default () in
      let tele = r.Perf_driver.telemetry in
      metrics_row ~kind:"perf" ~app:p.Perf_profile.name
        ~detected:r.Perf_driver.detected ~cycles:r.Perf_driver.cycles
        ~tele_cycles:(Profiler.total (Telemetry.profiler tele)) tele)
    [ "Blackscholes"; "Memcached"; "Pfscan" ]

(* ------------------------------------------------------------------ *)
(* Throughput: ns/op of the single-execution hot paths (JSONL)         *)

(* Explicit-only target.  Each row times one hot-path operation (malloc,
   free, read, write, trap, and a watchpoint's install plus removal on one
   thread, "watch", and on 16, "watch16") in real nanoseconds.  [mode] is "serial" (bare
   machine) or "metrics" (flight recorder + telemetry snapshots armed).
   Absolute ns/op track the host; ratios between rows of one run (e.g.
   malloc over serial read) are what compare across runs and against the
   committed BENCH_THROUGHPUT.jsonl.  Schema: csod.bench.throughput/2.

   On a shared host, loads and stores run up to 1.7x slower for stretches
   of a fraction of a second to several seconds (an ALU-bound loop does
   not slow down).  A row timed as one pass landed in such a stretch or
   not: the serial read row, which every ratio divides by, read 17-20 ns
   in some runs and 31-37 ns in others.  So each pass times its loop in
   [batches] batches and keeps the fastest, and every row runs
   [throughput_rounds] passes, the rows taking turns, keeping its fastest:
   a slow stretch reaches every row alike, and a row's figure is its cost
   when undisturbed.  One untimed pass of that first row runs before the
   rounds, so its first timed pass does not meet a cold process (spread
   over 10 runs: EXPERIMENTS.md, "CSOD allocation path"). *)
let throughput_rounds = 10
let batches = 20

(* Wall-clock ns/op of the fastest of [batches] runs of [f (iters /
   batches)], after a warmup run of [f 1000]. *)
let measure ~iters f =
  f (min 1000 iters);
  let n = iters / batches in
  let best = ref infinity in
  for _ = 1 to batches do
    let t0 = Unix.gettimeofday () in
    f n;
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best *. 1e9 /. float_of_int n

let throughput () =
  let row ~op ~mode ~iters ns =
    Schemas.emit_row Schemas.bench_throughput
      [ ("op", `String op);
        ("mode", `String mode);
        ("iters", `Int iters);
        ("ns_per_op", `Float ns);
        ("ops_per_sec", `Float (1e9 /. ns)) ]
  in
  let with_machine ~mode f =
    let machine = Machine.create ~seed:11 () in
    let run () = f machine in
    match mode with
    | `Serial -> run ()
    | `Metrics ->
      Telemetry.set_snapshot_interval (Machine.telemetry machine)
        ~cycles:50_000_000;
      Flight_recorder.with_recorder (Flight_recorder.create ()) run
  in
  (* Reads/writes over a 1 MiB region with all four debug registers armed
     (far away, never hit) — the busy-execution configuration where every
     access pays the comparator. *)
  let iters_rw = 2_000_000 in
  let rw_bench ~mode op =
    with_machine ~mode (fun m ->
        let tid = Threads.current (Machine.threads m) in
        for i = 0 to 3 do
          match Machine.install_watch m ~addr:(0x4000_0000 + (i * 64)) ~tid with
          | Ok _ -> ()
          | Error _ -> ()
        done;
        measure ~iters:iters_rw (fun n ->
            match op with
            | `Read ->
              for i = 0 to n - 1 do
                ignore (Machine.load_word m ((i * 8) land 0xFFFFF))
              done
            | `Write ->
              for i = 0 to n - 1 do
                Machine.store_word m ((i * 8) land 0xFFFFF) (i land 0xFF)
              done))
  in
  (* Full CSOD allocation path (context lookup, canary plant, sampling
     decision) and the matching free path, timed as separate phases of the
     same batched loop, each its fastest batch.  Call sites repeat in runs
     of 256, a loop-local pattern. *)
  let alloc_rounds = 30 and alloc_batch = 4096 in
  let alloc_pair ~mode =
    with_machine ~mode (fun m ->
        let heap = Heap.create m in
        let rt = Runtime.create ~machine:m ~heap () in
        let tool = Runtime.tool rt in
        let ptrs = Array.make alloc_batch 0 in
        let t_m = ref infinity and t_f = ref infinity in
        let k = ref 0 in
        let ctx = Alloc_ctx.synthetic ~callsite:0x40 () in
        for _ = 1 to alloc_rounds do
          let t0 = Unix.gettimeofday () in
          for i = 0 to alloc_batch - 1 do
            incr k;
            Alloc_ctx.point ctx ~callsite:(0x40 + (!k / 256 mod 64)) ~stack_offset:0;
            ptrs.(i) <- tool.Tool.malloc ~size:(16 + (!k mod 7 * 24)) ~ctx
          done;
          let t1 = Unix.gettimeofday () in
          for i = 0 to alloc_batch - 1 do
            tool.Tool.free ~ptr:ptrs.(i)
          done;
          let t2 = Unix.gettimeofday () in
          t_m := Float.min !t_m (t1 -. t0);
          t_f := Float.min !t_f (t2 -. t1)
        done;
        let n = float_of_int alloc_batch in
        (!t_m *. 1e9 /. n, !t_f *. 1e9 /. n))
  in
  (* Trap delivery: every store hits an armed watchpoint and synchronously
     runs a no-op SIGTRAP handler. *)
  let iters_trap = 200_000 in
  let trap_bench ~mode =
    with_machine ~mode (fun m ->
        Machine.set_trap_handler m (fun _ -> ());
        let tid = Threads.current (Machine.threads m) in
        (match Machine.install_watch m ~addr:0x9000 ~tid with
        | Ok _ -> ()
        | Error _ -> failwith "throughput: watchpoint install failed");
        measure ~iters:iters_trap (fun n ->
            for i = 0 to n - 1 do
              Machine.store_word m 0x9000 i
            done))
  in
  (* A watchpoint installed on every thread and removed again by its
     object's [free], through the WMU: the host cost behind one simulated
     Figure 3 + Figure 4 sequence per thread, on one thread and on 16. *)
  let watch_bench ~mode ~threads ~iters =
    with_machine ~mode (fun m ->
        for _ = 2 to threads do
          ignore (Threads.spawn (Machine.threads m) ~name:"worker")
        done;
        let params = Params.default in
        let ct = Context_table.create ~params ~machine:m ~rng:(Prng.create ~seed:1) in
        let wt = Watch_table.create ~params ~machine:m ~rng:(Prng.create ~seed:2) in
        let entry = Context_table.on_allocation ct (Alloc_ctx.synthetic ~callsite:0x40 ()) in
        measure ~iters (fun n ->
            for i = 0 to n - 1 do
              let a = 0x1000_0000 + (i land 0xFFFF * 64) in
              ignore (Watch_table.install wt ~obj_addr:a ~watch_addr:(a + 32) ~entry);
              ignore (Watch_table.on_free wt ~obj_addr:a)
            done))
  in
  (* Each pass times one or two rows: (op, mode, iters) and the pass. *)
  let alloc_iters = alloc_rounds * alloc_batch in
  let passes =
    List.concat_map
      (fun (mode_name, mode) ->
        let one op iters f = ([ (op, mode_name, iters) ], fun () -> [ f () ]) in
        [ one "read" iters_rw (fun () -> rw_bench ~mode `Read);
          one "write" iters_rw (fun () -> rw_bench ~mode `Write);
          ( [ ("malloc", mode_name, alloc_iters); ("free", mode_name, alloc_iters) ],
            fun () ->
              let malloc_ns, free_ns = alloc_pair ~mode in
              [ malloc_ns; free_ns ] );
          one "trap" iters_trap (fun () -> trap_bench ~mode);
          one "watch" 400_000 (fun () -> watch_bench ~mode ~threads:1 ~iters:400_000);
          one "watch16" 50_000 (fun () -> watch_bench ~mode ~threads:16 ~iters:50_000) ])
      [ ("serial", `Serial); ("metrics", `Metrics) ]
  in
  let best = List.map (fun (rows, _) -> Array.make (List.length rows) infinity) passes in
  (* The untimed pass of the row every ratio divides by. *)
  ignore ((snd (List.hd passes)) ());
  for round = 1 to throughput_rounds do
    progress "throughput: round %d of %d" round throughput_rounds;
    List.iter2
      (fun (_, pass) b -> List.iteri (fun i ns -> b.(i) <- Float.min b.(i) ns) (pass ()))
      passes best
  done;
  List.iter2
    (fun (rows, _) b ->
      List.iteri (fun i (op, mode, iters) -> row ~op ~mode ~iters b.(i)) rows)
    passes best

(* ------------------------------------------------------------------ *)

let targets =
  [ "table1"; "table2"; "table3"; "table4"; "table5"; "fig6"; "fig7";
    "evidence"; "fleet"; "ablate"; "syscalls"; "metrics"; "exec";
    "resilience"; "throughput" ]

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s\nusage: main.exe [--runs N] [TARGET...]\ntargets: %s\n"
        msg (String.concat " " targets);
      exit 2)
    fmt

let () =
  let rec parse runs cmds = function
    | [] -> (runs, List.rev cmds)
    | "--" :: rest -> parse runs cmds rest
    | [ "--runs" ] -> usage_error "--runs needs a value"
    | "--runs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some r when r > 0 -> parse (Some r) cmds rest
      | _ -> usage_error "--runs needs a positive integer, got %S" n)
    | c :: rest when List.mem c targets -> parse runs (c :: cmds) rest
    | c :: _ -> usage_error "unknown target %S" c
  in
  let runs_opt, cmds = parse None [] (List.tl (Array.to_list Sys.argv)) in
  let runs = Option.value ~default:1000 runs_opt in
  let ablate_runs = Option.value ~default:200 runs_opt in
  let all = cmds = [] in
  let want c = all || List.mem c cmds in
  if want "table1" then table1 ();
  if want "table2" then table2 ~runs ();
  if want "table3" then table3 ();
  if want "table4" then table4 ();
  if want "table5" then table5 ();
  if want "fig6" then fig6 ();
  if want "fig7" then fig7 ();
  if want "evidence" then evidence ();
  if all then fleet_table ();
  if want "ablate" then ablate ~runs:ablate_runs ();
  if want "syscalls" then syscalls ();
  (* Explicit-only: JSONL on stdout, so it never mixes into the default
     everything run.  `fleet` prints the human table in the everything run
     but emits csod.bench.fleet/1 rows when requested by name. *)
  if List.mem "metrics" cmds then metrics ();
  if List.mem "fleet" cmds then fleet_bench ();
  if List.mem "exec" cmds then exec_bench ();
  if List.mem "resilience" cmds then resilience ();
  if List.mem "throughput" cmds then throughput ();
  (* Keep stdout pure JSONL when a JSONL stream was requested. *)
  let jsonl =
    List.mem "metrics" cmds || List.mem "fleet" cmds
    || List.mem "exec" cmds
    || List.mem "resilience" cmds || List.mem "throughput" cmds
  in
  let done_ch = if jsonl then stderr else stdout in
  Printf.fprintf done_ch "\nDone.\n"
