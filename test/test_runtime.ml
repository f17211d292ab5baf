(* Integration tests for the assembled CSOD runtime. *)

let mk ?(params = Params.default) ?store ?(seed = 0) () =
  let machine = Machine.create ~seed:(seed + 100) () in
  let heap = Heap.create machine in
  let rt = Runtime.create ~params ?store ~seed ~machine ~heap () in
  (rt, Runtime.tool rt, machine, heap)

let ctx ?(off = 0) callsite = Alloc_ctx.synthetic ~callsite ~stack_offset:off ()

let test_watchpoint_detection_read_write () =
  let rt, tool, machine, _ = mk () in
  let p = tool.Tool.malloc ~size:32 ~ctx:(ctx 1) in
  (* first allocation is startup-watched; overflow read one word past *)
  ignore (Machine.load_word machine (p + 32));
  (match Runtime.detections rt with
  | [ r ] ->
    Alcotest.(check bool) "over-read" true (r.Report.kind = Report.Over_read);
    Alcotest.(check bool) "watchpoint source" true (r.Report.source = Report.Watchpoint);
    Alcotest.(check int) "object identified" p r.Report.object_addr
  | _ -> Alcotest.fail "expected one report");
  (* a second object, over-written *)
  let q = tool.Tool.malloc ~size:16 ~ctx:(ctx 2) in
  Machine.store_word machine (q + 16) 99;
  (match Runtime.detections rt with
  | [ _; r2 ] ->
    Alcotest.(check bool) "over-write" true (r2.Report.kind = Report.Over_write)
  | _ -> Alcotest.fail "expected two reports");
  Alcotest.(check bool) "detected" true (Runtime.detected rt)

let test_no_false_positives_in_bounds () =
  let rt, tool, machine, _ = mk () in
  let p = tool.Tool.malloc ~size:32 ~ctx:(ctx 1) in
  for i = 0 to 3 do
    Machine.store_word machine (p + (8 * i)) i;
    ignore (Machine.load_word machine (p + (8 * i)))
  done;
  tool.Tool.free ~ptr:p;
  Runtime.finish rt;
  Alcotest.(check bool) "no reports for in-bounds traffic" false (Runtime.detected rt)

let test_watch_removed_on_free () =
  let rt, tool, machine, _ = mk () in
  let p = tool.Tool.malloc ~size:32 ~ctx:(ctx 1) in
  tool.Tool.free ~ptr:p;
  (* the same memory may be reused; accessing the old boundary is silent *)
  ignore (Machine.load_word machine (p + 32));
  Alcotest.(check bool) "no stale watchpoint" false (Runtime.detected rt)

let test_canary_at_free () =
  let rt, tool, machine, _ = mk () in
  (* occupy all four slots so object five is (almost surely) unwatched *)
  for i = 1 to 4 do
    ignore (tool.Tool.malloc ~size:16 ~ctx:(ctx i))
  done;
  let p = tool.Tool.malloc ~size:24 ~ctx:(ctx 5) in
  (* smash the canary with an unwatched write (no trap possible) *)
  Machine.store_word_unwatched machine (p + 24) 0x41414141;
  tool.Tool.free ~ptr:p;
  let evidence =
    List.filter (fun r -> r.Report.source = Report.Canary_free) (Runtime.detections rt)
  in
  (match evidence with
  | [ r ] ->
    Alcotest.(check bool) "over-write evidence" true (r.Report.kind = Report.Over_write);
    Alcotest.(check int) "object" p r.Report.object_addr
  | _ -> Alcotest.fail "expected canary-at-free evidence");
  (* the context is now pinned and persisted *)
  Alcotest.(check bool) "persisted" true
    (Persist.mem (Runtime.store rt) (Alloc_ctx.key (ctx 5)))

let test_canary_at_exit () =
  let rt, tool, machine, _ = mk () in
  for i = 1 to 4 do
    ignore (tool.Tool.malloc ~size:16 ~ctx:(ctx i))
  done;
  let p = tool.Tool.malloc ~size:24 ~ctx:(ctx 5) in
  Machine.store_word_unwatched machine (p + 24) 0x42424242;
  (* never freed: the termination sweep must find it *)
  Runtime.finish rt;
  Alcotest.(check bool) "canary-at-exit evidence" true
    (List.exists
       (fun r -> r.Report.source = Report.Canary_exit)
       (Runtime.detections rt));
  (* finish is idempotent *)
  let n = List.length (Runtime.detections rt) in
  Runtime.finish rt;
  Alcotest.(check int) "idempotent finish" n (List.length (Runtime.detections rt))

(* The exit sweep walks the heap's slots, so its reports come in slot
   order: freeing the first object moves the last one, [q], into its
   slot, ahead of [p]. *)
let test_canary_exit_order () =
  let rt, tool, machine, _ = mk () in
  let first = tool.Tool.malloc ~size:16 ~ctx:(ctx 1) in
  for i = 2 to 4 do
    ignore (tool.Tool.malloc ~size:16 ~ctx:(ctx i))
  done;
  let p = tool.Tool.malloc ~size:24 ~ctx:(ctx 5) in
  let q = tool.Tool.malloc ~size:40 ~ctx:(ctx 6) in
  Machine.store_word_unwatched machine (p + 24) 0x44444444;
  Machine.store_word_unwatched machine (q + 40) 0x45454545;
  tool.Tool.free ~ptr:first;
  Runtime.finish rt;
  let exits =
    List.filter_map
      (fun r ->
        if r.Report.source = Report.Canary_exit then Some r.Report.object_addr else None)
      (Runtime.detections rt)
  in
  Alcotest.(check (list int)) "exit reports in slot order" [ q; p ] exits

let test_no_evidence_mode () =
  let params = { Params.default with Params.evidence = false } in
  let rt, tool, machine, heap = mk ~params () in
  let p = tool.Tool.malloc ~size:24 ~ctx:(ctx 1) in
  (* no header before the object *)
  Alcotest.(check bool) "no header" true (not (Canary.read_header (Canary.create machine 0L) ~app:p));
  Machine.store_word_unwatched machine (p + 24) 0x43434343;
  tool.Tool.free ~ptr:p;
  Runtime.finish rt;
  Alcotest.(check bool) "watchpoint-only reports" true
    (List.for_all
       (fun r -> r.Report.source = Report.Watchpoint)
       (Runtime.detections rt));
  Alcotest.(check int) "heap clean" 0 (Heap.live_objects heap)

let test_persist_pins_context () =
  let store = Persist.create () in
  Persist.add store (Alloc_ctx.key (ctx 42));
  let rt, tool, machine, _ = mk ~store () in
  (* fill the slots with other contexts first, ending startup *)
  for i = 1 to 4 do
    ignore (tool.Tool.malloc ~size:16 ~ctx:(ctx i))
  done;
  (* known-guilty context: pinned at probability 1, must preempt *)
  let p = tool.Tool.malloc ~size:32 ~ctx:(ctx 42) in
  ignore (Machine.load_word machine (p + 32));
  Alcotest.(check bool) "known context watched deterministically" true
    (Runtime.detected rt)

let test_trap_after_detection_slot_reused () =
  let rt, tool, machine, _ = mk () in
  let p = tool.Tool.malloc ~size:16 ~ctx:(ctx 1) in
  ignore (Machine.load_word machine (p + 16));
  Alcotest.(check int) "one detection" 1 (List.length (Runtime.detections rt));
  (* the slot was released: the same access no longer traps *)
  ignore (Machine.load_word machine (p + 16));
  Alcotest.(check int) "watch removed after report" 1
    (List.length (Runtime.detections rt))

let test_stats_and_memory () =
  let rt, tool, _, _ = mk () in
  let p1 = tool.Tool.malloc ~size:16 ~ctx:(ctx 1) in
  let _p2 = tool.Tool.malloc ~size:16 ~ctx:(ctx 1) in
  let _p3 = tool.Tool.malloc ~size:16 ~ctx:(ctx 2) in
  tool.Tool.free ~ptr:p1;
  let s = Runtime.stats rt in
  Alcotest.(check int) "contexts" 2 s.Runtime.contexts;
  Alcotest.(check int) "allocations" 3 s.Runtime.allocations;
  Alcotest.(check int) "live objects" 2 s.Runtime.live_objects;
  Alcotest.(check bool) "watched at least the startup ones" true
    (s.Runtime.watched_times >= 3);
  Alcotest.(check bool) "context table accounted" true
    (Runtime.extra_resident_bytes rt > 0)

let test_free_null_and_foreign () =
  let _, tool, _, _ = mk () in
  tool.Tool.free ~ptr:0;
  (* foreign pointer: the heap rejects it *)
  try
    tool.Tool.free ~ptr:0xDEAD00;
    Alcotest.fail "foreign free must raise"
  with Heap.Error _ -> ()

let test_seed_changes_sampling () =
  (* Same allocation stream, different seeds: the post-startup sampling
     decisions eventually differ. *)
  let decisions seed =
    let rt, tool, _, _ = mk ~seed () in
    for i = 1 to 200 do
      let p = tool.Tool.malloc ~size:16 ~ctx:(ctx (i mod 10)) in
      tool.Tool.free ~ptr:p
    done;
    (Runtime.stats rt).Runtime.watched_times
  in
  let counts = List.map decisions [ 1; 2; 3; 4; 5; 6 ] in
  Alcotest.(check bool) "seeds diversify watch counts" true
    (List.sort_uniq compare counts <> [ List.hd counts ] || List.length counts = 1
     |> fun _ -> List.length (List.sort_uniq compare counts) > 1)

(* ------------------------------------------------------------------ *)
(* Equivalence pins: the hot-path optimizations (sparse-memory chunk
   cache and page pool, armed-event fast scan, context-lookup memo,
   derived Stats view) must be observably pure.  A golden pin of the full
   app corpus — detection outcome, total virtual cycles, and digests of
   the formatted reports and program output — captured before the
   optimizations landed guards them; test_hotpath.ml and test_core.ml
   check the comparator and the memo against exact models. *)

let digest s = Digest.to_hex (Digest.string s)

(* Captured with `Execution.run ~config:Config.csod_default` on the
   pre-optimization tree.  Any cycle or digest drift means an
   "optimization" changed simulated behaviour, not just real time. *)
let golden =
  [ ("Zziplib", 1, false, 76425299347, 0, "d41d8cd98f00b204e9800998ecf8427e",
     "6c286be8351651ae0c5b39e08538364e");
    ("Zziplib", 2, false, 78650284947, 0, "d41d8cd98f00b204e9800998ecf8427e",
     "4849970a9b15a893799ccbc6bfb36510");
    ("Zziplib", 3, false, 69135299347, 0, "d41d8cd98f00b204e9800998ecf8427e",
     "ac6a95ba25af8fc0ae81c0caa590e424");
    ("Heartbleed", 1, true, 35566426229, 1, "9e044b28a64ae487f36d83460895f07a",
     "6176a62ff58568c1dc391b7a00989dd5");
    ("Heartbleed", 2, true, 34713929829, 1, "9e044b28a64ae487f36d83460895f07a",
     "6176a62ff58568c1dc391b7a00989dd5");
    ("Heartbleed", 3, true, 34608901029, 1, "9e044b28a64ae487f36d83460895f07a",
     "6176a62ff58568c1dc391b7a00989dd5");
    ("LibHX", 1, true, 23585120063, 2, "54bada3ab6338ecedb80f3ddbb19b547",
     "c41cc8eea4229607cc60254b6291e67d");
    ("LibHX", 2, true, 18857620063, 2, "54bada3ab6338ecedb80f3ddbb19b547",
     "c41cc8eea4229607cc60254b6291e67d");
    ("LibHX", 3, true, 21502620063, 2, "54bada3ab6338ecedb80f3ddbb19b547",
     "c41cc8eea4229607cc60254b6291e67d") ]

let formatted_reports app (o : Execution.outcome) =
  String.concat "\n---\n"
    (List.map
       (Report.format ~symbolize:(Execution.symbolizer app))
       o.Execution.reports)

(* The pins were captured on the AST interpreter before the VM existed;
   requiring both engines to hit them makes the golden corpus itself an
   engine-equivalence gate. *)
let test_golden_corpus () =
  List.iter
    (fun engine ->
      List.iter
        (fun (name, seed, detected, cycles, nreports, reports_md5, output_md5) ->
          let app = Option.get (Buggy_app.by_name name) in
          let o = Execution.run ~app ~config:Config.csod_default ~engine ~seed () in
          let tag fmt =
            Printf.sprintf "%s seed=%d engine=%s: %s" name seed
              (Engine.to_string engine) fmt
          in
          Alcotest.(check bool) (tag "detected") detected o.Execution.detected;
          Alcotest.(check int) (tag "cycles") cycles o.Execution.cycles;
          Alcotest.(check int) (tag "reports") nreports
            (List.length o.Execution.reports);
          Alcotest.(check string) (tag "reports digest") reports_md5
            (digest (formatted_reports app o));
          Alcotest.(check string) (tag "output digest") output_md5
            (digest o.Execution.output))
        golden)
    [ Engine.Interp; Engine.Vm ]

(* The full nine-app corpus, one execution per engine, comparing the two
   engines' outcomes field by field (no pinned constants: this guards the
   pairs the golden list doesn't pin). *)
let test_engine_ab_all_apps () =
  List.iter
    (fun (app : Buggy_app.t) ->
      let obs engine =
        let o =
          Execution.run ~app ~config:Config.csod_default ~engine ~seed:1 ()
        in
        ( o.Execution.detected,
          o.Execution.cycles,
          formatted_reports app o,
          o.Execution.output,
          o.Execution.crashed,
          o.Execution.degraded )
      in
      let d1, c1, r1, o1, cr1, g1 = obs Engine.Interp in
      let d2, c2, r2, o2, cr2, g2 = obs Engine.Vm in
      let tag fmt = Printf.sprintf "%s: %s" app.Buggy_app.name fmt in
      Alcotest.(check bool) (tag "detected") d1 d2;
      Alcotest.(check int) (tag "cycles") c1 c2;
      Alcotest.(check string) (tag "reports") r1 r2;
      Alcotest.(check string) (tag "output") o1 o2;
      Alcotest.(check (option string)) (tag "crash") cr1 cr2;
      Alcotest.(check bool) (tag "degraded") g1 g2)
    (Buggy_app.all ())

(* Interp-vs-vm A/B over the zziplib fleet: the whole crowdsourcing layer
   (epoch barriers, store merges, detection seats) must not notice which
   engine ran the users — and, per the fleet's own determinism contract,
   neither may the domain count. *)
let test_engine_ab_fleet () =
  let app = Option.get (Buggy_app.by_name "Zziplib") in
  let fleet_obs ~engine ~domains =
    let workload = Workload.make ~users:200 ~base_seed:1 () in
    let cfg = Fleet.config ~domains ~epoch_size:32 workload in
    let report =
      Fleet.run cfg
        ~execute:(Execution.executor ~app ~config:Config.csod_default ~engine ())
    in
    let detected_uids =
      Array.to_list report.Fleet.seats
      |> List.filter (fun s -> s.Fleet.exec.Fleet.detected)
      |> List.map (fun s -> s.Fleet.user.Workload.uid)
    in
    let cycle_sum =
      Array.fold_left
        (fun acc s -> acc + s.Fleet.exec.Fleet.cycles)
        0 report.Fleet.seats
    in
    ( report.Fleet.detections,
      detected_uids,
      (match report.Fleet.first_catch with
      | Some s -> Some (s.Fleet.epoch, s.Fleet.user.Workload.uid)
      | None -> None),
      cycle_sum,
      Persist.count report.Fleet.store,
      List.sort compare (Persist.keys report.Fleet.store) )
  in
  let reference = fleet_obs ~engine:Engine.Interp ~domains:1 in
  List.iter
    (fun domains ->
      List.iter
        (fun engine ->
          let d, uids, catch, cycles, stored, keys =
            fleet_obs ~engine ~domains
          in
          let rd, ruids, rcatch, rcycles, rstored, rkeys = reference in
          let tag fmt =
            Printf.sprintf "engine=%s domains=%d: %s" (Engine.to_string engine)
              domains fmt
          in
          Alcotest.(check int) (tag "detections") rd d;
          Alcotest.(check (list int)) (tag "detected uids") ruids uids;
          Alcotest.(check bool) (tag "first catch") true (catch = rcatch);
          Alcotest.(check int) (tag "total cycles") rcycles cycles;
          Alcotest.(check int) (tag "store size") rstored stored;
          Alcotest.(check bool) (tag "store keys") true (keys = rkeys))
        [ Engine.Interp; Engine.Vm ])
    [ 1; 2; 4 ]

(* Releasing a machine's memory hands the context table's buckets to the
   next runtime on the domain; the released runtime keeps working on a
   table of its own and never writes into its successor's. *)
let test_released_runtime_usable () =
  let rt1, tool1, m1, _ = mk () in
  for i = 1 to 5 do
    tool1.Tool.free ~ptr:(tool1.Tool.malloc ~size:32 ~ctx:(ctx i))
  done;
  Runtime.finish rt1;
  Sparse_mem.release (Machine.mem m1);
  let rt2, tool2, _, _ = mk ~seed:1 () in
  let live = List.init 3 (fun i -> tool2.Tool.malloc ~size:24 ~ctx:(ctx (100 + i))) in
  let table2 = Runtime.context_table rt2 in
  Alcotest.(check int) "successor starts empty" 3 (Context_table.num_contexts table2);
  let table1 = Runtime.context_table rt1 in
  Alcotest.(check int) "released table forgets its contexts" 0
    (Context_table.num_contexts table1);
  List.iter
    (fun site -> tool1.Tool.free ~ptr:(tool1.Tool.malloc ~size:16 ~ctx:(ctx site)))
    [ 1; 100; 101; 102; 103 ];
  Alcotest.(check int) "released runtime counts its own contexts" 5
    (Context_table.num_contexts table1);
  Alcotest.(check int) "successor untouched" 3 (Context_table.num_contexts table2);
  Alcotest.(check bool) "successor keys intact" true
    (Context_table.find table2 (100, 0) <> None
    && Context_table.find table2 (103, 0) = None);
  List.iter (fun ptr -> tool2.Tool.free ~ptr) live;
  Runtime.finish rt2;
  Alcotest.(check bool) "no reports" false (Runtime.detected rt1 || Runtime.detected rt2)

(* ---------- Deep frames on recycled buffers ---------- *)

(* [down] recurses 300 frames, past the VM's initial room for 256, and
   overflows the first object it allocates there: a watchpoint report
   whose allocation and access contexts are both 303 frames deep, and a
   canary report when [main] frees the object.  On the way back up every
   level allocates from a context of its own, 300 backtraces that
   outgrow the context table's initial buffer. *)
let deep_src =
  "fn down(n) {\n\
  \  if (n == 0) { var p = malloc(32); p[4] = 7; return p; }\n\
  \  var p = down(n - 1);\n\
  \  var q = malloc(16);\n\
  \  free(q);\n\
  \  return p;\n\
   }\n\
   fn main() { var p = down(300); free(p); return 0; }\n"

let deep_program =
  lazy (Program.load_exn [ { Program.file = "deep.mc"; module_name = "deep"; source = deep_src } ])

(* One execution of [deep_src] under CSOD, released like [Execution.run]
   releases its machine: the reports, and the context table's charged
   bytes beside what its entries add up to (Table V's 2,048 buckets, a
   4-word node and 10 words per entry, 8 bytes per frame of its full
   context). *)
let deep_run engine =
  let machine = Machine.create ~seed:5 () in
  let heap = Heap.create machine in
  let rt = Runtime.create ~machine ~heap () in
  ignore
    (Engine.run ~engine ~machine ~tool:(Runtime.tool rt)
       ~program:(Lazy.force deep_program) ());
  Runtime.finish rt;
  let ct = Runtime.context_table rt in
  let summed = ref (2048 * 8) in
  Context_table.iter
    (fun e -> summed := !summed + (4 * 8) + (10 * 8) + (8 * List.length (Context_table.full_ctx ct e)))
    ct;
  let charged = Context_table.memory_bytes ct in
  Sparse_mem.release (Machine.mem machine);
  (Runtime.detections rt, charged, !summed)

let test_deep_frames_recycled () =
  let show (rs : Report.t list) =
    List.map
      (fun r ->
        (Report.format ~symbolize:string_of_int r, r.Report.alloc_backtrace,
         r.Report.access_backtrace))
      rs
  in
  let check_same tag a b =
    Alcotest.(check (list (triple string (list int) (list int)))) tag (show a) (show b)
  in
  (* On a new domain the spares start empty, so the first execution grows
     fresh buffers and the second runs on them. *)
  let (vm1, c1, s1), (vm2, c2, s2), (interp, ci, si) =
    Domain.join
      (Domain.spawn (fun () ->
           let vm1 = deep_run Engine.Vm in
           let vm2 = deep_run Engine.Vm in
           (vm1, vm2, deep_run Engine.Interp)))
  in
  (match interp with
  | [ w; c ] ->
    Alcotest.(check bool) "watchpoint, then canary" true
      (w.Report.source = Report.Watchpoint && c.Report.source <> Report.Watchpoint);
    Alcotest.(check int) "allocation context depth" 303 (List.length w.Report.alloc_backtrace);
    (* the overflowing store runs in the allocating frame *)
    Alcotest.(check (list int)) "allocation and access share their callers"
      (List.tl w.Report.alloc_backtrace) (List.tl w.Report.access_backtrace);
    Alcotest.(check (list int)) "canary report, read after 300 more contexts"
      w.Report.alloc_backtrace c.Report.alloc_backtrace
  | rs -> Alcotest.failf "expected two reports, got %d" (List.length rs));
  check_same "vm reports = interp reports" interp vm1;
  check_same "recycled buffers: second vm execution = first" vm1 vm2;
  List.iter
    (fun (tag, charged, summed) -> Alcotest.(check int) tag summed charged)
    [ ("interp: memory_bytes", ci, si); ("vm: memory_bytes", c1, s1);
      ("vm, recycled: memory_bytes", c2, s2) ];
  Alcotest.(check int) "same charge on both engines" ci c1

let suite =
  [ Alcotest.test_case "watchpoint detection (read+write)" `Quick
      test_watchpoint_detection_read_write;
    Alcotest.test_case "no false positives" `Quick test_no_false_positives_in_bounds;
    Alcotest.test_case "released runtime stays usable" `Quick
      test_released_runtime_usable;
    Alcotest.test_case "watch removed on free" `Quick test_watch_removed_on_free;
    Alcotest.test_case "canary at free" `Quick test_canary_at_free;
    Alcotest.test_case "canary at exit" `Quick test_canary_at_exit;
    Alcotest.test_case "no-evidence mode" `Quick test_no_evidence_mode;
    Alcotest.test_case "persisted context pinned" `Quick test_persist_pins_context;
    Alcotest.test_case "slot reused after detection" `Quick
      test_trap_after_detection_slot_reused;
    Alcotest.test_case "stats and memory" `Quick test_stats_and_memory;
    Alcotest.test_case "free NULL / foreign" `Quick test_free_null_and_foreign;
    Alcotest.test_case "seed changes sampling" `Quick test_seed_changes_sampling;
    Alcotest.test_case "golden corpus pin (cycles, reports, output)" `Quick
      test_golden_corpus;
    Alcotest.test_case "engine A/B: nine apps bit-identical" `Quick
      test_engine_ab_all_apps;
    Alcotest.test_case "engine A/B: zziplib fleet at 1/2/4 domains" `Quick
      test_engine_ab_fleet;
    Alcotest.test_case "deep frames: reports identical on recycled buffers" `Quick
      test_deep_frames_recycled;
    Alcotest.test_case "canary at exit: reports in slot order" `Quick
      test_canary_exit_order ]
