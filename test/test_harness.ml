(* Tests for the experiment harness: configs, executions, the oracle,
   evidence/fleet flows, perf driver, and ablation variants. *)

let gzip () = Option.get (Buggy_app.by_name "Gzip")
let memcached () = Option.get (Buggy_app.by_name "Memcached")

(* ---------- Config ---------- *)

let test_config_labels () =
  Alcotest.(check string) "baseline" "baseline" (Config.label Config.Baseline);
  Alcotest.(check string) "csod" "CSOD (near-FIFO)" (Config.label Config.csod_default);
  Alcotest.(check string) "csod w/o evidence" "CSOD w/o evidence (near-FIFO)"
    (Config.label Config.csod_no_evidence);
  Alcotest.(check string) "asan min" "ASan w/ minimal redzones"
    (Config.label Config.asan_min_redzone);
  Alcotest.(check string) "asan" "ASan" (Config.label Config.asan_default)

let test_config_instantiate () =
  let machine = Machine.create () in
  let heap = Heap.create machine in
  let b = Config.instantiate Config.Baseline ~machine ~heap () in
  Alcotest.(check bool) "baseline has no csod" true (b.Config.csod = None);
  Alcotest.(check int) "baseline free of startup cost" 0 b.Config.startup_cycles;
  let machine2 = Machine.create () in
  let heap2 = Heap.create machine2 in
  let c = Config.instantiate Config.csod_default ~machine:machine2 ~heap:heap2 () in
  Alcotest.(check bool) "csod instance" true (Option.is_some c.Config.csod);
  Alcotest.(check bool) "csod startup cost" true (c.Config.startup_cycles > 0)

(* ---------- Execution ---------- *)

let test_execution_detects () =
  let o = Execution.run ~app:(gzip ()) ~config:Config.csod_default ~seed:1 () in
  Alcotest.(check bool) "gzip detected" true o.Execution.detected;
  Alcotest.(check bool) "watchpoint report present" true
    (o.Execution.watchpoint_reports <> []);
  Alcotest.(check bool) "cycles advanced" true (o.Execution.cycles > 0);
  Alcotest.(check (option string)) "no crash" None o.Execution.crashed;
  match o.Execution.stats with
  | Some s -> Alcotest.(check int) "one context" 1 s.Runtime.contexts
  | None -> Alcotest.fail "csod stats expected"

let test_execution_baseline_silent () =
  let o = Execution.run ~app:(gzip ()) ~config:Config.Baseline ~seed:1 () in
  Alcotest.(check bool) "baseline sees nothing" false o.Execution.detected;
  Alcotest.(check bool) "no stats" true (o.Execution.stats = None)

let test_run_until_detected () =
  match
    Execution.run_until_detected ~app:(memcached ()) ~config:Config.csod_default
      ~max_runs:100
  with
  | Some (n, o) ->
    Alcotest.(check bool) "positive run index" true (n >= 1 && n <= 100);
    Alcotest.(check bool) "detected" true o.Execution.detected
  | None -> Alcotest.fail "memcached not detected within 100 runs"

(* ---------- Oracle ---------- *)

let test_oracle_tripwires () =
  let machine = Machine.create () in
  let heap = Heap.create machine in
  let o = Oracle.create machine heap in
  let tool = Oracle.tool o in
  let ctx = Alloc_ctx.synthetic ~callsite:9 () in
  let p = tool.Tool.malloc ~size:24 ~ctx in
  tool.Tool.on_access ~addr:p ~len:8 ~kind:Tool.Read ~site:1;
  Alcotest.(check bool) "in-bounds silent" true (Oracle.first_overflow o = None);
  tool.Tool.on_access ~addr:(p + 24) ~len:8 ~kind:Tool.Write ~site:77;
  (match Oracle.first_overflow o with
  | Some ov ->
    Alcotest.(check int) "object" p ov.Oracle.object_addr;
    Alcotest.(check int) "site" 77 ov.Oracle.access_site;
    Alcotest.(check int) "alloc index" 1 ov.Oracle.alloc_index;
    Alcotest.(check bool) "write kind" true (ov.Oracle.kind = Tool.Write)
  | None -> Alcotest.fail "tripwire missed");
  (* only the first overflow is recorded *)
  tool.Tool.on_access ~addr:(p + 25) ~len:8 ~kind:Tool.Read ~site:78;
  Alcotest.(check int) "first hit kept" 77
    (Option.get (Oracle.first_overflow o)).Oracle.access_site

let test_oracle_neighbour_no_false_positive () =
  let machine = Machine.create () in
  let heap = Heap.create machine in
  let o = Oracle.create machine heap in
  let tool = Oracle.tool o in
  let ctx = Alloc_ctx.synthetic ~callsite:9 () in
  (* two adjacent objects in the same size class *)
  let a = tool.Tool.malloc ~size:32 ~ctx in
  let b = tool.Tool.malloc ~size:32 ~ctx in
  (* touching object b's own bytes must not trip a's zone *)
  tool.Tool.on_access ~addr:b ~len:8 ~kind:Tool.Write ~site:1;
  tool.Tool.on_access ~addr:(b + 24) ~len:8 ~kind:Tool.Read ~site:1;
  Alcotest.(check bool) "no false positive on neighbour" true
    (Oracle.first_overflow o = None);
  ignore a

(* ---------- Evidence + fleet ---------- *)

let test_evidence_second_execution () =
  let rows = Evidence.second_execution () in
  Alcotest.(check int) "six over-write apps" 6 (List.length rows);
  List.iter
    (fun (r : Evidence.row) ->
      Alcotest.(check bool)
        (r.Evidence.app ^ ": canary evidence on run 1") true
        (r.Evidence.first_run_evidence || r.Evidence.first_run_watchpoint);
      Alcotest.(check bool)
        (r.Evidence.app ^ ": watchpoint detection by run 2") true
        r.Evidence.second_run_watchpoint)
    rows

let test_fleet_gzip_first_user () =
  match Evidence.fleet ~app:(gzip ()) ~users:5 () with
  | Some (1, _) -> ()
  | Some (n, _) -> Alcotest.fail (Printf.sprintf "gzip should be caught by user 1, got %d" n)
  | None -> Alcotest.fail "gzip undetected"

(* ---------- Effectiveness (tiny run counts) ---------- *)

let test_effectiveness_gzip_full_rate () =
  let n = Effectiveness.run_app ~app:(gzip ()) ~policy:Params.Near_fifo ~runs:10 () in
  Alcotest.(check int) "gzip 10/10" 10 n

let test_effectiveness_average () =
  let rows =
    [ { Effectiveness.app_name = "A"; naive = 10; random = 5; near_fifo = 0; runs = 10 };
      { Effectiveness.app_name = "B"; naive = 0; random = 5; near_fifo = 10; runs = 10 } ]
  in
  let n, r, f = Effectiveness.average_rate rows in
  Alcotest.check (Alcotest.float 1e-9) "naive avg" 0.5 n;
  Alcotest.check (Alcotest.float 1e-9) "random avg" 0.5 r;
  Alcotest.check (Alcotest.float 1e-9) "near-FIFO avg" 0.5 f

(* ---------- Characteristics ---------- *)

let test_table1_static () =
  let rows = Characteristics.table1 () in
  Alcotest.(check int) "nine rows" 9 (List.length rows);
  let hb =
    List.find (fun (r : Characteristics.table1_row) -> r.Characteristics.app = "Heartbleed") rows
  in
  Alcotest.(check string) "class" "Over-read" hb.Characteristics.vulnerability;
  Alcotest.(check string) "reference" "CVE-2014-0160" hb.Characteristics.reference

(* ---------- Perf driver ---------- *)

let small_profile =
  { Perf_profile.name = "TestApp"; loc = 100; contexts = 12; allocations = 5_000;
    threads = 2; runtime_sec = 2.0; access_rate = 1e8; avg_obj_bytes = 64;
    baseline_kb = 50; hot_contexts = 3; description = "synthetic test profile" }

let test_perf_driver_baseline_vs_tools () =
  let base = Perf_driver.run ~profile:small_profile ~config:Config.Baseline () in
  let csod = Perf_driver.run ~profile:small_profile ~config:Config.csod_default () in
  let asan = Perf_driver.run ~profile:small_profile ~config:Config.asan_min_redzone () in
  Alcotest.(check int) "no subsampling needed" 1 base.Perf_driver.scale;
  Alcotest.(check int) "all allocations simulated" 5_000 base.Perf_driver.sim_allocations;
  Alcotest.(check bool) "csod costs more than baseline" true
    (Perf_driver.overhead ~baseline:base csod > 1.0);
  Alcotest.(check bool) "asan costs more than csod here" true
    (asan.Perf_driver.cycles > csod.Perf_driver.cycles);
  Alcotest.(check bool) "workloads are bug-free" true
    ((not base.Perf_driver.detected) && (not csod.Perf_driver.detected)
    && not asan.Perf_driver.detected);
  Alcotest.(check bool) "csod observed the context census" true
    (csod.Perf_driver.contexts_seen >= small_profile.Perf_profile.contexts - 1);
  Alcotest.(check bool) "csod watched a bounded number of times" true
    (csod.Perf_driver.watched_times < 500);
  Alcotest.(check bool) "memory: csod above baseline" true
    (csod.Perf_driver.resident_kb >= base.Perf_driver.resident_kb)

let test_perf_driver_subsampling () =
  let big = { small_profile with Perf_profile.allocations = 5_000_000 } in
  let r = Perf_driver.run ~profile:big ~config:Config.Baseline () in
  Alcotest.(check int) "scale 1/3" 3 r.Perf_driver.scale;
  Alcotest.(check bool) "simulated under the cap" true
    (r.Perf_driver.sim_allocations <= Perf_driver.max_sim_allocations)

(* ---------- Ablation ---------- *)

let test_ablation_variants_sane () =
  let vs = Ablation.variants () in
  Alcotest.(check bool) "at least 8 variants" true (List.length vs >= 8);
  Alcotest.(check string) "paper config first" "paper" (List.hd vs).Ablation.name;
  List.iter
    (fun (v : Ablation.variant) ->
      Alcotest.(check bool) (v.Ablation.name ^ " evidence off") false
        v.Ablation.params.Params.evidence)
    vs

let test_ablation_tiny_run () =
  let rows = Ablation.run ~runs:2 () in
  Alcotest.(check int) "rows per variant" (List.length (Ablation.variants ()))
    (List.length rows);
  List.iter
    (fun (r : Ablation.row) ->
      let gz = List.assoc "Gzip" r.Ablation.detections in
      (* availability at startup watches gzip's only object regardless of
         variant parameters *)
      Alcotest.(check int) (r.Ablation.variant ^ ": gzip always caught") 2 gz)
    rows

let suite =
  [ Alcotest.test_case "config labels" `Quick test_config_labels;
    Alcotest.test_case "config instantiation" `Quick test_config_instantiate;
    Alcotest.test_case "execution detects" `Quick test_execution_detects;
    Alcotest.test_case "baseline silent" `Quick test_execution_baseline_silent;
    Alcotest.test_case "run_until_detected" `Quick test_run_until_detected;
    Alcotest.test_case "oracle tripwires" `Quick test_oracle_tripwires;
    Alcotest.test_case "oracle neighbour safety" `Quick
      test_oracle_neighbour_no_false_positive;
    Alcotest.test_case "evidence: second execution" `Slow test_evidence_second_execution;
    Alcotest.test_case "fleet: gzip user 1" `Quick test_fleet_gzip_first_user;
    Alcotest.test_case "effectiveness: gzip rate" `Quick test_effectiveness_gzip_full_rate;
    Alcotest.test_case "effectiveness: averaging" `Quick test_effectiveness_average;
    Alcotest.test_case "table1 static data" `Quick test_table1_static;
    Alcotest.test_case "perf driver: tools vs baseline" `Quick
      test_perf_driver_baseline_vs_tools;
    Alcotest.test_case "perf driver: subsampling" `Slow test_perf_driver_subsampling;
    Alcotest.test_case "ablation variants" `Quick test_ablation_variants_sane;
    Alcotest.test_case "ablation tiny run" `Slow test_ablation_tiny_run ]

(* Erroneous exits: CSOD registers handlers to run its termination checks
   even when the program crashes (paper, Section IV-B).  Model: a program
   that corrupts a canary and then double-frees. *)
let test_crash_still_checked () =
  let app =
    { App_def.name = "CrashDemo";
      vuln = Report.Over_write;
      reference = "synthetic";
      units =
        [ { Program.file = "crash.c"; module_name = "crash";
            source =
              "fn main() {\n\
               var a = malloc(16);\n\
               var b = malloc(16);\n\
               var c = malloc(16);\n\
               var d = malloc(16);\n\
               var p = malloc(24);\n\
               store8(p, 24, 65);      // corrupt the canary, unwatched object\n\
               free(a);\n\
               free(a);                // double free: the crash\n\
               free(p);\n\
               return 0;\n\
               }" } ];
      buggy_inputs = [||];
      benign_inputs = [||];
      instrumented_modules = [ "crash" ];
      bug_in_library = false;
      expected_naive_detectable = true }
  in
  (* seed chosen so the fifth object is not watched; the watchpoint write
     at offset 24 would otherwise catch it before the crash *)
  let o = Execution.run ~app ~config:Config.csod_default ~seed:2 () in
  Alcotest.(check bool) "the crash is reported" true (o.Execution.crashed <> None);
  Alcotest.(check bool) "termination handling still found the corruption" true
    (List.exists
       (fun r ->
         r.Report.source = Report.Canary_exit || r.Report.source = Report.Canary_free
         || r.Report.source = Report.Watchpoint)
       o.Execution.reports)

(* ---------- Post-mortem diagnosis ---------- *)

let contains s needle =
  let nl = String.length needle in
  let rec go i =
    i + nl <= String.length s && (String.sub s i nl = needle || go (i + 1))
  in
  go 0

(* Acceptance check: explaining Heartbleed names the overflowing
   allocation context and walks its probability timeline, whether this
   seed detected the bug or missed it. *)
let test_postmortem_heartbleed () =
  let app = Option.get (Buggy_app.by_name "Heartbleed") in
  let a =
    Postmortem.analyze ~app ~config:Config.csod_default ~seed:3 ()
  in
  (match a.Postmortem.oracle with
  | None -> Alcotest.fail "oracle must observe the Heartbleed overflow"
  | Some ov ->
    Alcotest.(check bool) "oracle indexed the allocation" true
      (ov.Oracle.alloc_index > 0));
  Alcotest.(check bool) "target correlated by alloc index" true
    (a.Postmortem.target_addr <> None);
  let rendered =
    Postmortem.render ~symbolize:(Execution.symbolizer app) a
  in
  (* The paper's Heartbleed victim is allocated in crypto_malloc. *)
  Alcotest.(check bool) "names the overflowing allocation context" true
    (contains rendered "crypto_malloc");
  Alcotest.(check bool) "shows the probability timeline" true
    (contains rendered "probability timeline");
  Alcotest.(check bool) "shows a decay transition" true
    (contains rendered "decay");
  match a.Postmortem.verdict with
  | Postmortem.Detected _ ->
    Alcotest.(check bool) "a detection report exists" true
      (a.Postmortem.outcome.Execution.reports <> [])
  | v ->
    (* A miss must still be diagnosed with a concrete mechanism. *)
    Alcotest.(check bool) "miss has a mechanical verdict" true
      (List.mem (Postmortem.verdict_label v)
         [ "coin-failed"; "outbid"; "watch-evicted"; "removed-on-free";
           "watched-no-trap" ])

(* The verdict agrees with the outcome, across several seeds: Detected
   exactly when the execution produced reports. *)
let test_postmortem_verdict_consistent () =
  let app = Option.get (Buggy_app.by_name "Heartbleed") in
  List.iter
    (fun seed ->
      let a =
        Postmortem.analyze ~app ~config:Config.csod_no_evidence ~seed ()
      in
      let detected =
        match a.Postmortem.verdict with Postmortem.Detected _ -> true | _ -> false
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d verdict matches outcome" seed)
        a.Postmortem.outcome.Execution.detected detected)
    [ 1; 5; 7 ]

let test_miss_attribution_tally () =
  let app = Option.get (Buggy_app.by_name "Heartbleed") in
  let tally =
    Effectiveness.miss_attribution ~app ~config:Config.csod_no_evidence
      ~runs:6 ()
  in
  Alcotest.(check int) "tally covers every run" 6
    (List.fold_left (fun acc (_, n) -> acc + n) 0 tally);
  List.iter
    (fun (label, n) ->
      Alcotest.(check bool) (label ^ " positive") true (n > 0))
    tally

(* Every watchpoint detection's story is the detected object's: it was
   watched, it trapped, and it was not freed before it was detected.  The
   heap reuses addresses, so the first allocation at the reported address
   can be an earlier object (Memcached seed 1 picked alloc #59, freed 16
   s before the detection of alloc #442). *)
let index_of s needle =
  let nl = String.length needle in
  let rec go i =
    if i + nl > String.length s then max_int
    else if String.sub s i nl = needle then i
    else go (i + 1)
  in
  go 0

let test_postmortem_stories_follow_the_object () =
  List.iter
    (fun name ->
      let app = Option.get (Buggy_app.by_name name) in
      for seed = 1 to 8 do
        let a = Postmortem.analyze ~app ~config:Config.csod_default ~seed () in
        let rendered =
          Postmortem.render ~symbolize:(Execution.symbolizer app) a
        in
        (* Section i+1 is detection #i+1's; the last is the ground truth. *)
        let rec split s =
          match index_of s "\n=== " with
          | n when n = max_int -> [ s ]
          | n -> String.sub s 0 n :: split (String.sub s (n + 5) (String.length s - n - 5))
        in
        let sections = Array.of_list (split rendered) in
        List.iteri
          (fun i (r : Report.t) ->
            if r.Report.source = Report.Watchpoint then begin
              let st = sections.(i + 1) in
              let at = index_of st in
              let where = Printf.sprintf "%s seed %d detection #%d" name seed (i + 1) in
              Alcotest.(check bool) (where ^ ": watched") true
                (at "watchpoint installed" < max_int);
              Alcotest.(check bool) (where ^ ": trapped") true (at "TRAP" < max_int);
              Alcotest.(check bool) (where ^ ": detected") true
                (at "DETECTED" < max_int);
              Alcotest.(check bool) (where ^ ": not freed before detected") true
                (at "freed" > at "DETECTED")
            end)
          a.Postmortem.outcome.Execution.reports
      done)
    [ "Memcached"; "MySQL"; "Heartbleed" ]

(* Under failure-oblivious response each redirect is a recorder record of
   the detected object, so it reads in that object's story, after the
   detection and before the free. *)
let test_postmortem_story_shows_redirects () =
  let app = Option.get (Buggy_app.by_name "Heartbleed") in
  let a = Postmortem.analyze ~app ~config:Config.csod_default ~seed:1 () in
  let r = Flight_recorder.create () in
  let outcome =
    Flight_recorder.with_recorder r (fun () ->
        Execution.run ~app ~config:Config.csod_default ~seed:1
          ~respond:Respond.Oblivious ())
  in
  let rendered =
    Postmortem.render ~symbolize:(Execution.symbolizer app)
      { a with Postmortem.outcome; records = Flight_recorder.records r }
  in
  let story =
    let from = index_of rendered "=== detection #1" in
    Alcotest.(check bool) "a detection section" true (from < max_int);
    String.sub rendered from (String.length rendered - from)
  in
  let at = index_of story in
  Alcotest.(check bool) "the redirect is in the story" true
    (at "RESPONSE redirect-read via watchpoint (1 bytes at +" < max_int);
  Alcotest.(check bool) "after the detection" true
    (at "DETECTED" < at "RESPONSE redirect-read")

(* A report names the chain first seen for its object's (call site, stack
   offset) pair, which the context entry holds (paper Section III-A1,
   Fig. 5), not necessarily the chain that allocated the object.  Zziplib
   seed 15 is such a case: its report names zip.c:46, the object came from
   zip.c:56.  A context keyed by chain must update this test. *)
let test_report_chain_is_first_sight () =
  let app = Option.get (Buggy_app.by_name "Zziplib") in
  let seed = 15 in
  (* Each allocation's (pair, chain, size), in allocation order, from an
     uninstrumented run of the same seed: the program allocates the same
     sequence under every tool. *)
  let machine = Machine.create ~seed () in
  let heap = Heap.create machine in
  let base = Tool.baseline heap in
  let buf = Alloc_ctx.chain 64 in
  let allocs = ref [] in
  let malloc ~size ~ctx =
    let off = buf.Alloc_ctx.len in
    ctx.Alloc_ctx.write buf;
    allocs :=
      (Alloc_ctx.key ctx, Alloc_ctx.to_list buf ~off ~len:(buf.Alloc_ctx.len - off), size)
      :: !allocs;
    base.Tool.malloc ~size ~ctx
  in
  ignore
    (Engine.run ~engine:Engine.Vm ~machine ~tool:{ base with Tool.malloc } ~program:(Buggy_app.program app)
       ~inputs:app.Buggy_app.buggy_inputs ~app_seed:seed ());
  let allocs = Array.of_list (List.rev !allocs) in
  let first_sight key =
    let _, chain, _ = List.find (fun (k, _, _) -> k = key) (Array.to_list allocs) in
    chain
  in
  let recorder = Flight_recorder.create () in
  let o =
    Flight_recorder.with_recorder recorder (fun () ->
        Execution.run ~app ~config:Config.csod_default ~seed ())
  in
  let r =
    match o.Execution.reports with
    | r :: _ -> r
    | [] -> Alcotest.fail "Zziplib seed 15 detects its overflow"
  in
  (* The detected object's allocation: the latest at its address. *)
  let index, size =
    List.fold_left
      (fun acc (rec_ : Flight_recorder.record) ->
        match rec_.Flight_recorder.kind with
        | Flight_recorder.Alloc a when a.addr = r.Report.object_addr -> (a.index, a.size)
        | _ -> acc)
      (0, 0)
      (Flight_recorder.records recorder)
  in
  let key, own_chain, own_size = allocs.(index - 1) in
  Alcotest.(check int) "the runs allocate alike" size own_size;
  Alcotest.(check (pair int int)) "the report's pair is the object's" key r.Report.ctx_key;
  Alcotest.(check (list int)) "the report names the pair's first-sight chain"
    (first_sight key) r.Report.alloc_backtrace;
  Alcotest.(check bool) "which is not the chain that allocated the object" true
    (own_chain <> r.Report.alloc_backtrace)

let suite =
  suite
  @ [ Alcotest.test_case "crashing program still checked at exit" `Quick
        test_crash_still_checked;
      Alcotest.test_case "postmortem: heartbleed explained" `Quick
        test_postmortem_heartbleed;
      Alcotest.test_case "postmortem: verdict matches outcome" `Quick
        test_postmortem_verdict_consistent;
      Alcotest.test_case "miss attribution tally" `Quick
        test_miss_attribution_tally;
      Alcotest.test_case "postmortem: stories follow the detected object"
        `Quick test_postmortem_stories_follow_the_object;
      Alcotest.test_case "postmortem: redirects join the object's story" `Quick
        test_postmortem_story_shows_redirects;
      Alcotest.test_case "report: chain is the pair's first-sight chain" `Quick
        test_report_chain_is_first_sight ]
