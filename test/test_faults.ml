(* Tests for the fault-injection subsystem: plan parsing, injector
   determinism, the no-perturbation pin (an all-zero plan is bit-identical
   to no plan), graceful degradation at every faulted layer, and the hard
   requirement that faulted fleets stay deterministic across domain
   counts. *)

let zziplib () = Option.get (Buggy_app.by_name "Zziplib")
let libhx () = Option.get (Buggy_app.by_name "LibHX")

let plan spec =
  match Fault_plan.of_string spec with
  | Ok p -> p
  | Error m -> Alcotest.failf "plan %S rejected: %s" spec m

(* ---------- Plan parser ---------- *)

let test_plan_parser () =
  let p = plan "seed=7,ebusy=0.25,trap-drop=0.1,persist-torn@0" in
  Alcotest.(check int) "seed" 7 p.Fault_plan.seed;
  Alcotest.(check (float 1e-9)) "ebusy rate" 0.25
    (Fault_plan.rate p Fault_plan.Perf_ebusy);
  Alcotest.(check (float 1e-9)) "unlisted rate is 0" 0.0
    (Fault_plan.rate p Fault_plan.Worker_crash);
  Alcotest.(check (list (float 1e-9))) "one-shot recorded" [ 0.0 ]
    (Fault_plan.oneshots_for p Fault_plan.Persist_torn);
  (* Round trip. *)
  Alcotest.(check bool) "to_string round-trips" true
    (plan (Fault_plan.to_string p) = p);
  Alcotest.(check string) "zero prints as none" "none"
    (Fault_plan.to_string Fault_plan.zero);
  Alcotest.(check bool) "zero-rate entries drop to zero" true
    (Fault_plan.is_zero (plan "ebusy=0.0"));
  (* Rejections. *)
  let rejected s =
    match Fault_plan.of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "rate above 1 rejected" true (rejected "ebusy=1.5");
  Alcotest.(check bool) "negative rate rejected" true (rejected "ebusy=-0.1");
  Alcotest.(check bool) "unknown point rejected" true (rejected "sigsegv=0.5");
  Alcotest.(check bool) "negative one-shot rejected" true
    (rejected "trap-drop@-1");
  Alcotest.(check bool) "bare word rejected" true (rejected "ebusy")

(* ---------- Injector determinism ---------- *)

let test_injector_determinism () =
  let fires salt =
    let inj = Fault_injector.create ~plan:(plan "seed=3,ebusy=0.5") ~salt in
    List.init 100 (fun _ -> Fault_injector.fire inj Fault_plan.Perf_ebusy)
  in
  Alcotest.(check bool) "same (plan, salt): same stream" true
    (fires 1 = fires 1);
  Alcotest.(check bool) "different salt: different stream" true
    (fires 1 <> fires 2);
  (* A zero plan never fires and never draws. *)
  let z = Fault_injector.create ~plan:Fault_plan.zero ~salt:1 in
  Alcotest.(check bool) "zero plan never fires" true
    (List.init 50 (fun _ -> Fault_injector.fire z Fault_plan.Perf_ebusy)
    |> List.for_all not);
  Alcotest.(check int) "nothing tallied" 0 (Fault_injector.total z);
  (* Indexed draws are pure: order and repetition do not matter. *)
  let inj = Fault_injector.create ~plan:(plan "worker-crash=0.5") ~salt:0 in
  let d i a = Fault_injector.indexed inj Fault_plan.Worker_crash ~index:i ~attempt:a in
  let forward = List.init 30 (fun i -> d i 1) in
  let backward = List.rev (List.init 30 (fun i -> d (29 - i) 1)) in
  Alcotest.(check bool) "indexed is order-independent" true (forward = backward);
  Alcotest.(check bool) "indexed is repeatable" true (d 7 1 = d 7 1);
  Alcotest.(check bool) "attempts draw independently" true
    (List.exists (fun i -> d i 1 <> d i 2) (List.init 30 Fun.id))

(* ---------- Forced single-shots (the simulation harness's hook) ---------- *)

let test_force_draws_nothing () =
  (* A forced fire must consume no draw from the plan's PRNG stream: an
     injector that served a forced shot stays bit-identical to a twin that
     never saw one, for every later rate decision. *)
  let p = plan "seed=3,ebusy=0.5" in
  let forced = Fault_injector.create ~plan:p ~salt:1 in
  let twin = Fault_injector.create ~plan:p ~salt:1 in
  Fault_injector.force forced Fault_plan.Perf_ebusy;
  Alcotest.(check bool) "forced shot fires" true
    (Fault_injector.fire forced Fault_plan.Perf_ebusy);
  let later inj =
    List.init 100 (fun _ -> Fault_injector.fire inj Fault_plan.Perf_ebusy)
  in
  Alcotest.(check bool) "later rate decisions unperturbed" true
    (later forced = later twin)

let test_force_is_per_point_and_queued () =
  let inj = Fault_injector.create ~plan:Fault_plan.zero ~salt:1 in
  Fault_injector.force inj Fault_plan.Trap_drop;
  Fault_injector.force inj Fault_plan.Trap_drop;
  (* A different point does not consume the queued shots. *)
  Alcotest.(check bool) "other point unaffected" false
    (Fault_injector.fire inj Fault_plan.Perf_eacces);
  Alcotest.(check bool) "first queued shot fires" true
    (Fault_injector.fire inj Fault_plan.Trap_drop);
  Alcotest.(check bool) "second queued shot fires" true
    (Fault_injector.fire inj Fault_plan.Trap_drop);
  Alcotest.(check bool) "queue exhausted" false
    (Fault_injector.fire inj Fault_plan.Trap_drop);
  Alcotest.(check int) "both shots tallied" 2
    (Fault_injector.count inj Fault_plan.Trap_drop)

(* ---------- No-perturbation pin (mirrors test_obs) ---------- *)

(* Same operation stream against a machine with no injector and a machine
   with an all-zero plan: the next root-PRNG draw and the clock must be
   identical — the fault stream consumed nothing. *)
let drive_runtime faults =
  let machine = Machine.create ~seed:5 ?faults () in
  let heap = Heap.create machine in
  let rt = Runtime.create ~machine ~heap () in
  let tool = Runtime.tool rt in
  let ptrs =
    List.init 40 (fun i ->
        tool.Tool.malloc
          ~size:(16 + (i mod 5 * 8))
          ~ctx:
            (Alloc_ctx.synthetic ~callsite:(1 + (i mod 7))
               ~stack_offset:(i mod 3) ()))
  in
  List.iteri (fun i p -> if i mod 2 = 0 then tool.Tool.free ~ptr:p) ptrs;
  Runtime.finish rt;
  (Prng.bits64 (Machine.rng machine), Clock.cycles (Machine.clock machine))

let test_zero_plan_preserves_prng_stream () =
  let bare_draw, bare_cycles = drive_runtime None in
  let zero_draw, zero_cycles =
    drive_runtime (Some (Fault_injector.create ~plan:Fault_plan.zero ~salt:5))
  in
  Alcotest.(check int64) "identical next PRNG draw" bare_draw zero_draw;
  Alcotest.(check int) "identical clock" bare_cycles zero_cycles

(* Outcome-level: a full execution under the zero plan matches a faultless
   one byte for byte — output, cycles, reports, and the whole metrics
   registry (the fault counters exist in both, at zero). *)
let test_zero_plan_outcome_identical () =
  let app = zziplib () in
  List.iter
    (fun seed ->
      let bare = Execution.run ~app ~config:Config.csod_default ~seed () in
      let zero =
        Execution.run ~app ~config:Config.csod_default ~seed
          ~faults:Fault_plan.zero ()
      in
      Alcotest.(check bool) "same detection" bare.Execution.detected
        zero.Execution.detected;
      Alcotest.(check int) "same cycles" bare.Execution.cycles
        zero.Execution.cycles;
      Alcotest.(check string) "same output" bare.Execution.output
        zero.Execution.output;
      Alcotest.(check int) "same report count"
        (List.length bare.Execution.reports)
        (List.length zero.Execution.reports);
      let counters o =
        Metrics.counters_list (Telemetry.metrics o.Execution.telemetry)
      in
      Alcotest.(check bool) "identical metrics registry" true
        (counters bare = counters zero))
    [ 1; 2; 3 ]

(* ---------- Degradation: EBUSY to canary-only ---------- *)

(* Every perf_event_open fails: the runtime must give up on watchpoints
   (after its retry budget), flip to canary-only mode, and the evidence
   canaries must still detect the over-write — detection survives losing
   the debug registers entirely. *)
let test_ebusy_degrades_to_canary_only () =
  let o =
    Execution.run ~app:(libhx ()) ~config:Config.csod_default ~seed:1
      ~faults:(plan "seed=5,ebusy=1.0") ()
  in
  Alcotest.(check bool) "runtime degraded" true o.Execution.degraded;
  Alcotest.(check bool) "still detected" true o.Execution.detected;
  Alcotest.(check int) "no watchpoint report" 0
    (List.length o.Execution.watchpoint_reports);
  Alcotest.(check bool) "detected by a canary" true
    (List.exists
       (fun r ->
         r.Report.source = Report.Canary_free
         || r.Report.source = Report.Canary_exit)
       o.Execution.reports);
  (match o.Execution.faults with
  | None -> Alcotest.fail "injector missing from the outcome"
  | Some inj ->
    Alcotest.(check bool) "ebusy faults tallied" true
      (Fault_injector.count inj Fault_plan.Perf_ebusy > 0));
  (* The probability transition is recorded in the flight recorder. *)
  let r = Flight_recorder.create ~capacity:4096 () in
  let o2 =
    Flight_recorder.with_recorder r (fun () ->
        Execution.run ~app:(libhx ()) ~config:Config.csod_default ~seed:1
          ~faults:(plan "seed=5,ebusy=1.0") ())
  in
  Alcotest.(check bool) "degraded again" true o2.Execution.degraded;
  Alcotest.(check bool) "degrade transition recorded" true
    (List.exists
       (fun rec_ ->
         match rec_.Flight_recorder.kind with
         | Flight_recorder.Prob { cause = Flight_recorder.Degrade; to_p; _ } ->
           to_p = 0.0
         | _ -> false)
       (Flight_recorder.records r))

(* Contended-but-retryable registers: the store's evidence pins the
   zziplib context, and the bounded EBUSY retry gets a watchpoint onto it
   despite the contention — the over-read is still caught the
   watchpoint way, because evidence made the install non-optional. *)
let test_evidence_pinning_survives_ebusy_contention () =
  let app = zziplib () in
  (* The sequential fleet up to its first catch, as Evidence.fleet runs it. *)
  let t =
    Fleet.start
      (Fleet.config ~domains:1 ~epoch_size:1 (Workload.make ~users:64 ()))
      ~execute:(Execution.executor ~app ~config:Config.csod_default ())
  in
  while Fleet.first_catch t = None && Fleet.arrived t < 64 do
    ignore (Fleet.step t ~arrivals:1)
  done;
  if Fleet.first_catch t = None then
    Alcotest.fail "zziplib not detected within 64 users";
  let store = Fleet.store t in
  Alcotest.(check bool) "evidence uploaded" true (Persist.count store > 0);
  let o =
    Execution.run ~app ~config:Config.csod_default ~seed:1 ~store
      ~faults:(plan "seed=2,ebusy=0.3") ()
  in
  (match o.Execution.faults with
  | None -> Alcotest.fail "injector missing from the outcome"
  | Some inj ->
    Alcotest.(check bool) "contention actually injected" true
      (Fault_injector.count inj Fault_plan.Perf_ebusy > 0));
  Alcotest.(check bool) "not degraded: retries won" false o.Execution.degraded;
  Alcotest.(check bool) "detected through the contention" true
    o.Execution.detected;
  Alcotest.(check bool) "via a watchpoint" true
    (o.Execution.watchpoint_reports <> [])

(* ---------- Persistence under faults ---------- *)

let with_temp f =
  let path = Filename.temp_file "csod_store" ".txt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let mk_store keys =
  let s = Persist.create () in
  List.iter (Persist.add s) keys;
  s

let test_persist_checksummed_roundtrip () =
  with_temp (fun path ->
      let keys = [ (64, 0); (65, 2); (1031, 1) ] in
      Persist.save (mk_store keys) path;
      let content = In_channel.with_open_text path In_channel.input_all in
      Alcotest.(check bool) "footer present" true
        (let lines =
           String.split_on_char '\n' content
           |> List.filter (fun l -> l <> "")
         in
         match List.rev lines with
         | last :: _ ->
           String.length last > 13 && String.sub last 0 13 = "#csod.store/2"
         | [] -> false);
      let loaded, outcome = Persist.load_result path in
      Alcotest.(check bool) "clean load" true (outcome = Persist.Clean 3);
      Alcotest.(check bool) "keys round-trip" true
        (Persist.keys loaded = List.sort compare keys);
      Alcotest.(check bool) "no tmp file left behind" false
        (Sys.file_exists (path ^ ".tmp")))

let test_persist_footerless_legacy_load () =
  with_temp (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc "64 0\n1031 1\n");
      let metrics = Metrics.create () in
      let loaded, outcome = Persist.load_result ~metrics path in
      (* No footer, no integrity: a tear on a line boundary looks the
         same, so the keys load but the store is recovered, never clean. *)
      Alcotest.(check bool) "legacy file loads recovered" true
        (outcome = Persist.Recovered { entries = 2; corrupt_lines = 0 });
      Alcotest.(check bool) "keys parsed" true
        (Persist.keys loaded = [ (64, 0); (1031, 1) ]);
      Alcotest.(check int) "recovery counted" 2
        (Metrics.count (Metrics.counter_named metrics "persist.recovered")))

let test_persist_missing_vs_empty () =
  with_temp (fun path ->
      Sys.remove path;
      let _, missing = Persist.load_result path in
      Alcotest.(check bool) "missing file" true (missing = Persist.Missing);
      Persist.save (Persist.create ()) path;
      let _, empty = Persist.load_result path in
      Alcotest.(check bool) "empty store is Clean 0, not Missing" true
        (empty = Persist.Clean 0))

let test_persist_truncated_recovers () =
  with_temp (fun path ->
      Persist.save (mk_store [ (64, 0); (65, 2); (1031, 1) ]) path;
      (* Tear the file mid-line: keep the first data line plus a fragment
         of the second, dropping the rest and the footer. *)
      let content = In_channel.with_open_text path In_channel.input_all in
      let cut = String.index content '\n' + 2 in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (String.sub content 0 cut));
      let metrics = Metrics.create () in
      let loaded, outcome = Persist.load_result ~metrics path in
      (match outcome with
      | Persist.Recovered { entries; corrupt_lines } ->
        Alcotest.(check int) "one context salvaged" 1 entries;
        Alcotest.(check bool) "torn line counted" true (corrupt_lines >= 1)
      | _ -> Alcotest.fail "expected Recovered");
      Alcotest.(check bool) "salvaged key still pins" true
        (Persist.mem loaded (64, 0));
      Alcotest.(check bool) "persist.recovered nonzero" true
        (Metrics.count (Metrics.counter_named metrics "persist.recovered") > 0);
      Alcotest.(check bool) "persist.corrupt_lines nonzero" true
        (Metrics.count (Metrics.counter_named metrics "persist.corrupt_lines") > 0))

let test_persist_torn_write_recoverable () =
  with_temp (fun path ->
      let keys = List.init 8 (fun i -> (100 + i, i mod 3)) in
      let inj =
        Fault_injector.create ~plan:(plan "seed=11,persist-torn@0") ~salt:0
      in
      Persist.save ~faults:inj (mk_store keys) path;
      Alcotest.(check int) "torn write tallied" 1
        (Fault_injector.count inj Fault_plan.Persist_torn);
      let metrics = Metrics.create () in
      let loaded, outcome = Persist.load_result ~metrics path in
      Alcotest.(check bool) "load survives the torn file" true
        (match outcome with
        | Persist.Recovered _ | Persist.Clean _ -> true
        | Persist.Missing -> false);
      Alcotest.(check bool) "salvaged keys are a subset" true
        (List.for_all (fun k -> List.mem k keys) (Persist.keys loaded));
      Alcotest.(check bool) "something was salvaged" true
        (Persist.count loaded > 0))

let test_persist_enospc_preserves_published_store () =
  with_temp (fun path ->
      Persist.save (mk_store [ (64, 0) ]) path;
      let inj =
        Fault_injector.create ~plan:(plan "seed=4,persist-enospc@0") ~salt:0
      in
      Persist.save ~faults:inj (mk_store [ (64, 0); (65, 1); (66, 2) ]) path;
      Alcotest.(check int) "enospc tallied" 1
        (Fault_injector.count inj Fault_plan.Persist_enospc);
      let loaded, outcome = Persist.load_result path in
      Alcotest.(check bool) "old store intact (atomicity)" true
        (outcome = Persist.Clean 1 && Persist.keys loaded = [ (64, 0) ]);
      Alcotest.(check bool) "abandoned tmp cleaned up" false
        (Sys.file_exists (path ^ ".tmp")))

(* A store path that is a non-empty directory cannot be renamed onto: the
   error reaches the caller and no PATH.tmp is left behind. *)
let test_persist_failed_save_cleans_up () =
  with_temp (fun file ->
      Sys.remove file;
      Sys.mkdir file 0o755;
      let keep = Filename.concat file "keep" in
      Out_channel.with_open_text keep ignore;
      Fun.protect
        ~finally:(fun () ->
          Sys.remove keep;
          Sys.rmdir file;
          if Sys.file_exists (file ^ ".tmp") then Sys.remove (file ^ ".tmp"))
        (fun () ->
          (match Persist.save (mk_store [ (64, 0) ]) file with
          | () -> Alcotest.fail "saving onto a directory succeeded"
          | exception Sys_error _ -> ());
          Alcotest.(check bool) "no tmp file left" false
            (Sys.file_exists (file ^ ".tmp"));
          Alcotest.(check bool) "the directory is untouched" true
            (Sys.file_exists keep)))

(* ---------- Pool: join-all and crash requeue ---------- *)

(* Regression for the join-all fix: when one chunk raises, every in-flight
   [f] call must have completed before the exception reaches the caller —
   no sibling domain may still be running user code. *)
let test_pool_joins_all_before_reraise () =
  let active = Atomic.make 0 in
  let spin () =
    (* A busy wait long enough that siblings are mid-flight when index 5
       raises. *)
    let x = ref 0 in
    for i = 1 to 2_000_000 do
      x := !x + i
    done;
    Sys.opaque_identity !x
  in
  let raised =
    try
      ignore
        (Pool.map ~domains:4 16 ~f:(fun i ->
             Atomic.incr active;
             let r = if i = 5 then failwith "boom" else spin () in
             Atomic.decr active;
             r));
      false
    with Failure msg -> msg = "boom"
  in
  Alcotest.(check bool) "worker exception re-raised" true raised;
  Alcotest.(check int) "no f call still in flight after the re-raise"
    1 (* only the raiser never decremented *)
    (Atomic.get active)

let test_pool_crash_requeue_determinism () =
  let f i = (i * 31) + 7 in
  let want = Array.init 40 f in
  List.iter
    (fun spec ->
      List.iter
        (fun domains ->
          let inj = Fault_injector.create ~plan:(plan spec) ~salt:0 in
          Alcotest.(check (array int))
            (Printf.sprintf "%s at %d domains" spec domains)
            want
            (Pool.map ~faults:inj ~domains 40 ~f))
        [ 1; 2; 4 ])
    [ "seed=3,worker-crash=0.5"; "seed=3,worker-crash=1.0" ];
  (* Crash counts are also domain-count independent. *)
  let crashes domains =
    let inj = Fault_injector.create ~plan:(plan "seed=3,worker-crash=0.5") ~salt:0 in
    ignore (Pool.map ~faults:inj ~domains 40 ~f);
    Fault_injector.count inj Fault_plan.Worker_crash
  in
  let c1 = crashes 1 in
  Alcotest.(check bool) "some crashes injected" true (c1 > 0);
  Alcotest.(check int) "crash tally at 2 domains" c1 (crashes 2);
  Alcotest.(check int) "crash tally at 4 domains" c1 (crashes 4);
  (* index_base shifts the draw stream: successive epochs fault
     differently. *)
  let seq base =
    let inj = Fault_injector.create ~plan:(plan "seed=3,worker-crash=0.5") ~salt:0 in
    List.init 40 (fun i ->
        Fault_injector.indexed inj Fault_plan.Worker_crash ~index:(base + i)
          ~attempt:1)
  in
  Alcotest.(check bool) "offset epochs draw distinct faults" true
    (seq 0 <> seq 40)

(* ---------- Fleet under faults ---------- *)

(* The report's per-epoch rows: the health stream's deterministic part. *)
let epoch_rows r =
  List.map Obs_json.to_string (Epoch.to_json r.Fleet.health)

let fleet_fingerprint r =
  ( Fleet.detection_uids r,
    Array.map (fun s -> s.Fleet.exec.Fleet.source) r.Fleet.seats,
    Array.map (fun s -> s.Fleet.exec.Fleet.cycles) r.Fleet.seats,
    Option.map
      (fun s -> (s.Fleet.user.Workload.uid, s.Fleet.epoch))
      r.Fleet.first_catch,
    epoch_rows r,
    Persist.keys r.Fleet.store,
    Metrics.counters_list r.Fleet.metrics,
    Profiler.to_list r.Fleet.profile )

(* The acceptance pin: a crashed worker's chunk is requeued (or computed
   serially), so a fleet with worker crashes produces exactly the report
   of the unfaulted fleet — only the crash counter differs. *)
let test_fleet_worker_crash_same_report () =
  let app = zziplib () in
  let config = Config.csod_default in
  let w = Workload.make ~benign_frac:0.25 ~users:120 () in
  let run faults =
    Fleet.run
      (Fleet.config ~domains:2 ~epoch_size:32 ?faults w)
      ~execute:(Execution.executor ~app ~config ())
  in
  let bare = run None in
  let faulted = run (Some (plan "seed=3,worker-crash=0.4")) in
  let crashes r =
    Metrics.count (Metrics.counter_named r.Fleet.metrics "fleet.worker_crashes")
  in
  Alcotest.(check int) "unfaulted fleet counts zero crashes" 0 (crashes bare);
  Alcotest.(check bool) "crashes actually injected" true (crashes faulted > 0);
  let minus_crashes r =
    List.filter
      (fun (name, _) -> name <> "fleet.worker_crashes")
      (Metrics.counters_list r.Fleet.metrics)
  in
  Alcotest.(check bool) "same detections" true
    (Fleet.detection_uids bare = Fleet.detection_uids faulted);
  Alcotest.(check bool) "same seat cycles" true
    (Array.map (fun s -> s.Fleet.exec.Fleet.cycles) bare.Fleet.seats
    = Array.map (fun s -> s.Fleet.exec.Fleet.cycles) faulted.Fleet.seats);
  Alcotest.(check bool) "same merged store" true
    (Persist.keys bare.Fleet.store = Persist.keys faulted.Fleet.store);
  Alcotest.(check bool) "same epochs" true
    (epoch_rows bare = epoch_rows faulted);
  Alcotest.(check bool) "metrics agree modulo the crash counter" true
    (minus_crashes bare = minus_crashes faulted)

(* Same --faults spec, any --domains: bit-identical reports.  The machine-
   level faults are salted per execution seed and the pool crashes use
   stateless indexed draws, so nothing depends on scheduling. *)
let test_fleet_faults_deterministic_across_domains () =
  let app = zziplib () in
  let config = Config.csod_default in
  let p = plan "seed=11,ebusy=0.4,trap-drop=0.3,worker-crash=0.3" in
  let w = Workload.make ~benign_frac:0.25 ~users:200 () in
  let simulate domains =
    Fleet.run
      (Fleet.config ~domains ~epoch_size:32 ~faults:p w)
      ~execute:(Execution.executor ~app ~config ~faults:p ())
  in
  let r1 = simulate 1 and r2 = simulate 2 and r4 = simulate 4 in
  Alcotest.(check bool) "domains 1 = 2" true
    (fleet_fingerprint r1 = fleet_fingerprint r2);
  Alcotest.(check bool) "domains 1 = 4" true
    (fleet_fingerprint r1 = fleet_fingerprint r4);
  (* The faults really bit: the injected-fault counters are nonzero. *)
  Alcotest.(check bool) "trap drops visible in merged metrics" true
    (Metrics.count (Metrics.counter_named r1.Fleet.metrics "trap.dropped") > 0)

let suite =
  [ Alcotest.test_case "plan: parse and round-trip" `Quick test_plan_parser;
    Alcotest.test_case "injector: determinism" `Quick test_injector_determinism;
    Alcotest.test_case "force: draws nothing from the plan stream" `Quick
      test_force_draws_nothing;
    Alcotest.test_case "force: per-point, queued, tallied" `Quick
      test_force_is_per_point_and_queued;
    Alcotest.test_case "zero plan: prng stream untouched" `Quick
      test_zero_plan_preserves_prng_stream;
    Alcotest.test_case "zero plan: outcome identical" `Quick
      test_zero_plan_outcome_identical;
    Alcotest.test_case "ebusy: degrades to canary-only, still detects" `Quick
      test_ebusy_degrades_to_canary_only;
    Alcotest.test_case "ebusy: evidence pinning survives contention" `Quick
      test_evidence_pinning_survives_ebusy_contention;
    Alcotest.test_case "persist: checksummed round-trip" `Quick
      test_persist_checksummed_roundtrip;
    Alcotest.test_case "persist: footer-less legacy load" `Quick
      test_persist_footerless_legacy_load;
    Alcotest.test_case "persist: missing vs empty" `Quick
      test_persist_missing_vs_empty;
    Alcotest.test_case "persist: truncated store recovers" `Quick
      test_persist_truncated_recovers;
    Alcotest.test_case "persist: torn write is recoverable" `Quick
      test_persist_torn_write_recoverable;
    Alcotest.test_case "persist: enospc keeps the old store" `Quick
      test_persist_enospc_preserves_published_store;
    Alcotest.test_case "persist: failed save leaves no tmp" `Quick
      test_persist_failed_save_cleans_up;
    Alcotest.test_case "pool: joins all before re-raising" `Quick
      test_pool_joins_all_before_reraise;
    Alcotest.test_case "pool: crash requeue determinism" `Quick
      test_pool_crash_requeue_determinism;
    Alcotest.test_case "fleet: crashed worker, same report" `Quick
      test_fleet_worker_crash_same_report;
    Alcotest.test_case "fleet: faulted determinism across domains" `Slow
      test_fleet_faults_deterministic_across_domains ]
