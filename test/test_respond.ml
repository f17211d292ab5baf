(* Tests for the active-response layer: failure-oblivious execution and
   code-less patching.

   The headline guarantees under test:
   - observational purity when off: --respond off is bit-identical to a
     run with no response layer at all (outcome, cycles, reports, machine
     counters, PRNG stream position);
   - deterministic survival: the same seed redirects the same accesses
     and reaches the same verdict, and the fleet report stays
     bit-identical at any domain count, with or without fault injection;
   - honest accounting: a corruption the watchpoint missed (dropped trap)
     is caught by the canary and recorded as an escape, so it can never
     be claimed as a survival;
   - code-less patching: once fleet evidence convicts a context, its
     allocations carry guard slack and the overflow stops producing
     reports entirely. *)

let digest s = Digest.to_hex (Digest.string s)

let app_of name = Option.get (Buggy_app.by_name name)

(* ---- mode parsing ---- *)

let test_mode_parsing () =
  let ok s m =
    match Respond.mode_of_string s with
    | Ok m' -> Alcotest.(check bool) (s ^ " parses") true (m = m')
    | Error e -> Alcotest.fail (s ^ ": " ^ e)
  in
  ok "off" Respond.Off;
  ok "oblivious" Respond.Oblivious;
  ok "patch" (Respond.Patch Respond.default_patch_threshold);
  ok "patch=1" (Respond.Patch 1);
  ok "patch=7" (Respond.Patch 7);
  List.iter
    (fun s ->
      match Respond.mode_of_string s with
      | Ok _ -> Alcotest.fail (s ^ " should be rejected")
      | Error _ -> ())
    [ "patch=0"; "patch=-1"; "patch="; "patch=x"; "obliv"; "" ];
  (* Round-trip through the canonical rendering. *)
  List.iter
    (fun m ->
      match Respond.mode_of_string (Respond.mode_to_string m) with
      | Ok m' -> Alcotest.(check bool) "round-trip" true (m = m')
      | Error e -> Alcotest.fail e)
    [ Respond.Off; Respond.Oblivious; Respond.Patch 5 ]

(* ---- off-mode purity ---- *)

(* Run one app manually so the machine stays accessible, with the
   response layer either absent (the pre-respond configuration) or
   explicitly [Off], and collect every observable including where the
   root PRNG stream ended up. *)
let run_manual ~respond (app : Buggy_app.t) ~seed =
  let program = Buggy_app.program app in
  let machine = Machine.create ~seed () in
  let heap = Heap.create machine in
  let inst =
    match respond with
    | None -> Config.instantiate Config.csod_default ~machine ~heap ~seed ()
    | Some mode ->
      Config.instantiate Config.csod_default ~machine ~heap ~respond:mode
        ~seed ()
  in
  let r =
    Interp.run ~machine ~tool:inst.Config.tool ~program
      ~inputs:app.Buggy_app.buggy_inputs ~app_seed:seed ()
  in
  inst.Config.finish ();
  let reports =
    match inst.Config.csod with
    | Some rt -> Runtime.detections rt
    | None -> []
  in
  ( inst.Config.detected (),
    Clock.cycles (Machine.clock machine),
    List.map (Report.format ~symbolize:(Execution.symbolizer app)) reports,
    Machine.access_count machine,
    Machine.trap_count machine,
    r.Interp.output,
    Prng.bits64 (Machine.rng machine) )

let test_off_mode_pure () =
  List.iter
    (fun name ->
      let app = app_of name in
      List.iter
        (fun seed ->
          let plain = run_manual ~respond:None app ~seed in
          let off = run_manual ~respond:(Some Respond.Off) app ~seed in
          let d1, c1, r1, a1, t1, o1, p1 = plain in
          let d2, c2, r2, a2, t2, o2, p2 = off in
          let tag fmt = Printf.sprintf "%s seed=%d: %s" name seed fmt in
          Alcotest.(check bool) (tag "detected") d1 d2;
          Alcotest.(check int) (tag "cycles") c1 c2;
          Alcotest.(check (list string)) (tag "reports") r1 r2;
          Alcotest.(check int) (tag "accesses") a1 a2;
          Alcotest.(check int) (tag "traps") t1 t2;
          Alcotest.(check string) (tag "output") o1 o2;
          Alcotest.(check int64) (tag "prng position") p1 p2)
        [ 1; 2 ])
    [ "Heartbleed"; "LibHX"; "Zziplib" ]

(* The outcome record agrees: --respond off never claims a survival and
   carries no summary. *)
let test_off_mode_no_claim () =
  let app = app_of "Heartbleed" in
  let o = Execution.run ~app ~config:Config.csod_default ~seed:1 () in
  Alcotest.(check bool) "no respond summary" true (o.Execution.respond = None);
  Alcotest.(check bool) "no survival claim" false o.Execution.survived

(* ---- oblivious mode ---- *)

let oblivious_run ?faults ~seed name =
  Execution.run ~app:(app_of name) ~config:Config.csod_default ~seed
    ~respond:Respond.Oblivious ?faults ()

let summary_of (o : Execution.outcome) = Option.get o.Execution.respond

let test_oblivious_redirects_and_survives () =
  (* Heartbleed's over-read traps repeatedly; every trapped access must be
     redirected and the run must complete without a crash. *)
  let o = oblivious_run ~seed:1 "Heartbleed" in
  let s = summary_of o in
  Alcotest.(check bool) "still detected" true o.Execution.detected;
  Alcotest.(check bool) "ran to completion" true (o.Execution.crashed = None);
  Alcotest.(check bool) "reads were redirected" true
    (s.Respond.redirected_reads > 0);
  Alcotest.(check int) "no escapes" 0 s.Respond.escapes;
  Alcotest.(check bool) "survived" true o.Execution.survived;
  (* Detection reporting is once per object: redirect counts exceed
     report counts when the same access loops. *)
  Alcotest.(check bool) "one report despite many redirects" true
    (List.length o.Execution.reports <= s.Respond.redirected_reads)

let test_oblivious_deterministic () =
  List.iter
    (fun name ->
      List.iter
        (fun seed ->
          let a = oblivious_run ~seed name and b = oblivious_run ~seed name in
          let tag fmt = Printf.sprintf "%s seed=%d: %s" name seed fmt in
          Alcotest.(check bool) (tag "detected") a.Execution.detected
            b.Execution.detected;
          Alcotest.(check int) (tag "cycles") a.Execution.cycles
            b.Execution.cycles;
          Alcotest.(check bool) (tag "survived") a.Execution.survived
            b.Execution.survived;
          Alcotest.(check string) (tag "output") a.Execution.output
            b.Execution.output;
          let sa = summary_of a and sb = summary_of b in
          Alcotest.(check int) (tag "reads") sa.Respond.redirected_reads
            sb.Respond.redirected_reads;
          Alcotest.(check int) (tag "writes") sa.Respond.redirected_writes
            sb.Respond.redirected_writes;
          Alcotest.(check int) (tag "escapes") sa.Respond.escapes
            sb.Respond.escapes)
        [ 1; 2; 3 ])
    [ "Heartbleed"; "LibHX"; "Gzip" ]

let test_oblivious_write_squash_protects_neighbors () =
  (* A write-overflow app that survives: the squash restored the
     neighbor's bytes, so the program output is the same as an untouched
     run except for the detection side effects — at minimum, no crash and
     no escape. *)
  let o = oblivious_run ~seed:1 "Polymorph" in
  let s = summary_of o in
  Alcotest.(check bool) "completed" true (o.Execution.crashed = None);
  Alcotest.(check bool) "writes redirected" true
    (s.Respond.redirected_writes > 0);
  Alcotest.(check int) "no escape past the canary" 0 s.Respond.escapes;
  Alcotest.(check bool) "survived" true o.Execution.survived

let test_canary_escape_blocks_survival () =
  (* LibHX at seed 3: the watchpoint misses the overflowing access and
     the canary catches the corruption at free — adjacent memory was
     already overwritten, so the run must NOT count as survived. *)
  let o = oblivious_run ~seed:3 "LibHX" in
  let s = summary_of o in
  Alcotest.(check bool) "detected (canary)" true o.Execution.detected;
  Alcotest.(check bool) "escape recorded" true (s.Respond.escapes > 0);
  Alcotest.(check bool) "not survived" false o.Execution.survived

let test_dropped_trap_cannot_fake_survival () =
  (* Fault injection drops every trap: the redirect never happens, the
     write corrupts the neighbor, and the canary converts that into an
     escape.  Survival claims must stay honest under faults. *)
  let plan =
    match Fault_plan.of_string "seed=5,trap-drop=1.0" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  List.iter
    (fun seed ->
      let o = oblivious_run ~faults:plan ~seed "Gzip" in
      let s = summary_of o in
      Alcotest.(check int) "nothing redirected" 0
        (s.Respond.redirected_reads + s.Respond.redirected_writes);
      Alcotest.(check bool) "canary caught the corruption" true
        (s.Respond.escapes > 0);
      Alcotest.(check bool) "not survived" false o.Execution.survived)
    [ 1; 2 ]

(* ---- fleet determinism ---- *)

(* The deterministic projection of a fleet report: everything except
   wall-clock facts and the domain count itself. *)
let fleet_projection (r : Execution.outcome Fleet.report) =
  let seat (s : Execution.outcome Fleet.seat) =
    let o = s.Fleet.exec.Fleet.payload in
    let resp =
      match o.Execution.respond with
      | None -> "-"
      | Some s ->
        Printf.sprintf "%d/%d/%d/%d" s.Respond.redirected_reads
          s.Respond.redirected_writes s.Respond.escapes
          s.Respond.patched_allocs
    in
    Printf.sprintf "%d:%d:%b:%d:%b:%s" s.Fleet.user.Workload.uid s.Fleet.epoch
      o.Execution.detected o.Execution.cycles o.Execution.survived resp
  in
  let health (h : Health.sample) =
    Printf.sprintf "%d:%d:%d:%d:%d:%d" h.Health.epoch h.Health.arrivals
      h.Health.detections h.Health.cumulative h.Health.store_contexts
      h.Health.patched
  in
  String.concat "\n"
    (List.map seat (Array.to_list r.Fleet.seats)
    @ List.map health r.Fleet.health
    @ [ String.concat ";"
          (List.map
             (fun k ->
               Printf.sprintf "%d,%d=%d" (fst k) (snd k)
                 (Persist.hits r.Fleet.store k))
             (Persist.keys r.Fleet.store));
        string_of_int r.Fleet.detections ])

let fleet_run ~domains ~respond ?faults ?patch_threshold name =
  let workload = Workload.make ~users:96 ~base_seed:1 () in
  let cfg =
    Fleet.config ~domains ~epoch_size:32 ?faults ?patch_threshold workload
  in
  Fleet.run cfg
    ~execute:
      (Execution.executor ~app:(app_of name) ~config:Config.csod_default
         ~respond ?faults ())

let test_fleet_domains_invariance () =
  List.iter
    (fun (respond, patch_threshold) ->
      let base =
        fleet_projection
          (fleet_run ~domains:1 ~respond ?patch_threshold "Zziplib")
      in
      List.iter
        (fun domains ->
          let p =
            fleet_projection
              (fleet_run ~domains ~respond ?patch_threshold "Zziplib")
          in
          Alcotest.(check string)
            (Printf.sprintf "%s at %d domains"
               (Respond.mode_to_string respond)
               domains)
            (digest base) (digest p))
        [ 2; 4 ])
    [ (Respond.Oblivious, None); (Respond.Patch 3, Some 3) ]

let test_fleet_faulted_domains_invariance () =
  let plan =
    match Fault_plan.of_string "seed=9,trap-drop=0.2,ebusy=0.1" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let base =
    fleet_projection (fleet_run ~domains:1 ~respond:Respond.Oblivious
                        ~faults:plan "Gzip")
  in
  List.iter
    (fun domains ->
      let p =
        fleet_projection (fleet_run ~domains ~respond:Respond.Oblivious
                            ~faults:plan "Gzip")
      in
      Alcotest.(check string)
        (Printf.sprintf "faulted oblivious at %d domains" domains)
        (digest base) (digest p))
    [ 2; 4 ]

(* ---- code-less patching ---- *)

(* Fleet evidence convicts Zziplib's context; from then on a primed store
   makes the single-execution runtime over-allocate that context's
   allocations, and the overflow lands in owned slack: zero reports. *)
let test_patch_convicts_and_silences () =
  let report = fleet_run ~domains:2 ~respond:Respond.Off "Zziplib" in
  let key =
    match Persist.keys report.Fleet.store with
    | [ k ] -> k
    | ks ->
      Alcotest.failf "expected exactly one convicted context, got %d"
        (List.length ks)
  in
  Alcotest.(check bool) "fleet accumulated evidence" true
    (Persist.hits report.Fleet.store key >= 3);
  (* A primed store pins the context at probability 1, so without the
     patch policy every execution detects. *)
  let primed () =
    let s = Persist.create () in
    for _ = 1 to 3 do Persist.add s key done;
    s
  in
  let unpatched =
    Execution.run ~app:(app_of "Zziplib") ~config:Config.csod_default ~seed:1
      ~store:(primed ()) ()
  in
  Alcotest.(check bool) "pinned context detects without patching" true
    unpatched.Execution.detected;
  (* With the patch policy at the same threshold the allocation gets
     guard slack instead of a watchpoint: no report, no crash. *)
  let patched =
    Execution.run ~app:(app_of "Zziplib") ~config:Config.csod_default ~seed:1
      ~store:(primed ()) ~respond:(Respond.Patch 3) ()
  in
  let s = summary_of patched in
  Alcotest.(check bool) "patched run reports nothing" false
    patched.Execution.detected;
  Alcotest.(check bool) "patched run completes" true
    (patched.Execution.crashed = None);
  Alcotest.(check bool) "allocations were padded" true
    (s.Respond.patched_allocs > 0)

let test_patch_below_threshold_unchanged () =
  (* Two hits under a threshold of three: conviction has not happened, so
     the runtime behaves exactly as with the policy off (the context is
     still pinned by evidence and detects). *)
  let report = fleet_run ~domains:2 ~respond:Respond.Off "Zziplib" in
  let key = List.hd (Persist.keys report.Fleet.store) in
  let prime n =
    let s = Persist.create () in
    for _ = 1 to n do Persist.add s key done;
    s
  in
  let o =
    Execution.run ~app:(app_of "Zziplib") ~config:Config.csod_default ~seed:1
      ~store:(prime 2) ~respond:(Respond.Patch 3) ()
  in
  Alcotest.(check bool) "unconvicted context still detects" true
    o.Execution.detected;
  Alcotest.(check int) "no padding below threshold" 0
    (summary_of o).Respond.patched_allocs

(* Every response is a flight-recorder record: the ring holds one per
   counted action, with the action and source the runtime saw. *)
let test_records_match_summary () =
  let r = Flight_recorder.create () in
  let o =
    Flight_recorder.with_recorder r (fun () -> oblivious_run ~seed:1 "Heartbleed")
  in
  let s = summary_of o in
  let count action =
    List.length
      (List.filter
         (fun rec_ ->
           match rec_.Flight_recorder.kind with
           | Flight_recorder.Respond { action = a; source; _ } ->
             a = action && source = Respond.Watchpoint
           | _ -> false)
         (Flight_recorder.records r))
  in
  Alcotest.(check bool) "redirects recorded" true (s.Respond.redirected_reads > 0);
  Alcotest.(check int) "a record per redirected read" s.Respond.redirected_reads
    (count Flight_recorder.Redirect_read);
  Alcotest.(check int) "a record per redirected write"
    s.Respond.redirected_writes (count Flight_recorder.Redirect_write);
  Alcotest.(check int) "no escape" 0 (count Flight_recorder.Escape)

let suite =
  [ Alcotest.test_case "mode parsing" `Quick test_mode_parsing;
    Alcotest.test_case "off mode: bit-identical to no layer" `Quick
      test_off_mode_pure;
    Alcotest.test_case "off mode: no summary, no claim" `Quick
      test_off_mode_no_claim;
    Alcotest.test_case "oblivious: redirects and survives" `Quick
      test_oblivious_redirects_and_survives;
    Alcotest.test_case "oblivious: deterministic per seed" `Quick
      test_oblivious_deterministic;
    Alcotest.test_case "oblivious: write squash protects neighbors" `Quick
      test_oblivious_write_squash_protects_neighbors;
    Alcotest.test_case "canary escape blocks survival" `Quick
      test_canary_escape_blocks_survival;
    Alcotest.test_case "dropped trap cannot fake survival" `Quick
      test_dropped_trap_cannot_fake_survival;
    Alcotest.test_case "fleet bit-identical at 1/2/4 domains" `Quick
      test_fleet_domains_invariance;
    Alcotest.test_case "faulted fleet bit-identical at 1/2/4 domains" `Quick
      test_fleet_faulted_domains_invariance;
    Alcotest.test_case "patch: conviction silences the overflow" `Quick
      test_patch_convicts_and_silences;
    Alcotest.test_case "patch: below threshold unchanged" `Quick
      test_patch_below_threshold_unchanged;
    Alcotest.test_case "response records match the summary" `Quick
      test_records_match_summary ]
