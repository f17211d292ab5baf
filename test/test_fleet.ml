(* Tests for the fleet subsystem: workload model, domain pool, epoch
   barrier semantics, and the hard determinism requirement — the same
   fleet produces bit-identical reports for any domain count. *)

let zziplib () = Option.get (Buggy_app.by_name "Zziplib")

(* ---------- Workload ---------- *)

let test_workload_determinism () =
  let w = Workload.make ~benign_frac:0.5 ~base_seed:7 ~users:100 () in
  let u1 = Workload.user w 42 and u2 = Workload.user w 42 in
  Alcotest.(check bool) "same user twice" true (u1 = u2);
  Alcotest.(check int) "seed offset" (7 + 42 - 1) (Workload.user w 42).Workload.seed;
  let benign =
    List.init 100 (fun i -> Workload.user w (i + 1))
    |> List.filter (fun u -> u.Workload.benign)
    |> List.length
  in
  Alcotest.(check bool) "benign mix near the fraction" true
    (benign > 25 && benign < 75);
  let all_buggy = Workload.make ~users:50 () in
  Alcotest.(check bool) "benign_frac 0: all buggy" true
    (List.init 50 (fun i -> Workload.user all_buggy (i + 1))
    |> List.for_all (fun u -> not u.Workload.benign));
  let all_benign = Workload.make ~benign_frac:1.0 ~users:50 () in
  Alcotest.(check bool) "benign_frac 1: all benign" true
    (List.init 50 (fun i -> Workload.user all_benign (i + 1))
    |> List.for_all (fun u -> u.Workload.benign))

let test_workload_arrivals () =
  List.iter
    (fun burst ->
      let w = Workload.make ~burst ~users:997 () in
      let a = Workload.arrivals w ~epoch_size:32 in
      Alcotest.(check int)
        (Workload.burst_name burst ^ ": arrivals sum to users")
        997
        (Array.fold_left ( + ) 0 a);
      Alcotest.(check bool)
        (Workload.burst_name burst ^ ": every epoch nonempty")
        true
        (Array.for_all (fun n -> n > 0) a))
    [ Workload.Steady; Workload.Frontload; Workload.Wave ];
  let steady = Workload.make ~users:96 () in
  Alcotest.(check (array int)) "steady epochs" [| 32; 32; 32 |]
    (Workload.arrivals steady ~epoch_size:32);
  let front = Workload.arrivals (Workload.make ~burst:Workload.Frontload ~users:200 ()) ~epoch_size:32 in
  Alcotest.(check bool) "frontload spikes early" true (front.(0) > 32)

(* ---------- Pool ---------- *)

let test_pool_map () =
  let f i = (i * i) + 1 in
  let want = Array.init 37 f in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "map with %d domains" domains)
        want
        (Pool.map ~domains 37 ~f))
    [ 1; 2; 4; 16 ];
  Alcotest.(check (array int)) "empty input" [||] (Pool.map ~domains:4 0 ~f)

let test_pool_exception () =
  Alcotest.(check bool) "worker exception reaches the caller" true
    (try
       ignore
         (Pool.map ~domains:2 16 ~f:(fun i ->
              if i = 5 then failwith "boom" else i));
       false
     with Failure msg -> msg = "boom")

(* ---------- Epoch barrier semantics (synthetic executor) ---------- *)

(* An executor that "finds the bug" only as user 3, and afterwards only
   where user 3's evidence has been uploaded.  Inside user 3's own epoch
   nobody else may see the discovery (reports travel at epoch barriers,
   not instantly); from the next epoch on everybody must. *)
let synthetic ~user ~store =
  let key = (42, 0) in
  let detected = user.Workload.uid = 3 || Persist.mem store key in
  if user.Workload.uid = 3 then Persist.add store key;
  { Fleet.payload = ();
    detected;
    source = None;
    cycles = 1;
    telemetry = None;
    degraded = false }

let test_epoch_barrier () =
  let w = Workload.make ~users:10 () in
  let r = Fleet.run (Fleet.config ~domains:2 ~epoch_size:5 w) ~execute:synthetic in
  Alcotest.(check (list int)) "pinned only after the barrier"
    [ 3; 6; 7; 8; 9; 10 ] (Fleet.detection_uids r);
  (match r.Fleet.first_catch with
  | Some s ->
    Alcotest.(check int) "first catch uid" 3 s.Fleet.user.Workload.uid;
    Alcotest.(check int) "first catch epoch" 0 s.Fleet.epoch
  | None -> Alcotest.fail "first catch expected");
  let rows = r.Fleet.health in
  Alcotest.(check (list int)) "per-epoch detections" [ 1; 5 ]
    (List.map (fun (s : Health.sample) -> s.detections) rows);
  Alcotest.(check (list int)) "store grows at the first barrier" [ 1; 1 ]
    (List.map (fun (s : Health.sample) -> s.store_contexts) rows);
  (* Epoch size 1 is the sequential path: evidence is visible to the very
     next user. *)
  let r1 = Fleet.run (Fleet.config ~domains:1 ~epoch_size:1 w) ~execute:synthetic in
  Alcotest.(check (list int)) "epoch 1: next user already pinned"
    [ 3; 4; 5; 6; 7; 8; 9; 10 ] (Fleet.detection_uids r1)

let test_report_invariants () =
  let w = Workload.make ~benign_frac:0.3 ~burst:Workload.Wave ~users:213 () in
  let r = Fleet.run (Fleet.config ~domains:2 ~epoch_size:20 w) ~execute:synthetic in
  Alcotest.(check int) "one seat per user" 213 (Array.length r.Fleet.seats);
  Alcotest.(check int) "epoch arrivals cover the population" 213
    (List.fold_left (fun n (s : Health.sample) -> n + s.arrivals) 0 r.Fleet.health);
  Alcotest.(check int) "detections equal the last cumulative"
    r.Fleet.detections
    (List.fold_left (fun _ (s : Health.sample) -> s.cumulative) 0 r.Fleet.health);
  Alcotest.(check bool) "cumulative is monotone" true
    (let rec mono = function
       | (a : Health.sample) :: (b :: _ as rest) ->
         a.cumulative <= b.cumulative && mono rest
       | _ -> true
     in
     mono r.Fleet.health);
  Array.iteri
    (fun i s -> Alcotest.(check int) "seats in uid order" (i + 1) s.Fleet.user.Workload.uid)
    r.Fleet.seats

(* ---------- Determinism across domain counts (real executions) ---------- *)

(* The report's per-epoch rows: the health stream's deterministic part. *)
let epoch_rows r =
  List.map (fun s -> Obs_json.to_string (Epoch.to_json s)) r.Fleet.health

(* The acceptance bar: a 1000-user fleet of real CSOD executions yields
   identical detection sets, first-catch epochs, merged counters and
   merged stores for --domains 1, 2 and 4.  Only wall time may differ. *)
let test_determinism_across_domains () =
  let app = zziplib () in
  let config = Config.csod_default in
  let w = Workload.make ~benign_frac:0.25 ~users:1000 () in
  let simulate domains =
    Fleet.run
      (Fleet.config ~domains ~epoch_size:32 w)
      ~execute:(Execution.executor ~app ~config ())
  in
  let r1 = simulate 1 and r2 = simulate 2 and r4 = simulate 4 in
  let fingerprint r =
    ( Fleet.detection_uids r,
      Array.map (fun s -> s.Fleet.exec.Fleet.source) r.Fleet.seats,
      Array.map (fun s -> s.Fleet.exec.Fleet.cycles) r.Fleet.seats,
      Option.map (fun s -> (s.Fleet.user.Workload.uid, s.Fleet.epoch)) r.Fleet.first_catch,
      epoch_rows r,
      Persist.keys r.Fleet.store,
      Metrics.counters_list r.Fleet.metrics,
      Metrics.gauges_list r.Fleet.metrics,
      Profiler.to_list r.Fleet.profile )
  in
  Alcotest.(check bool) "domains 1 = 2" true (fingerprint r1 = fingerprint r2);
  Alcotest.(check bool) "domains 1 = 4" true (fingerprint r1 = fingerprint r4);
  Alcotest.(check bool) "the fleet detects" true (r1.Fleet.detections > 0);
  Alcotest.(check bool) "later epochs pin the context" true
    (Persist.count r1.Fleet.store > 0)

(* ---------- Sequential path ---------- *)

(* Evidence.fleet is the epoch-size-1 fleet on one domain, stopped at the
   first catch: it agrees with the whole run's first catch, and that run
   uploads the evidence. *)
let test_until_detected_shared_store () =
  let app = zziplib () in
  let r =
    Fleet.run
      (Fleet.config ~domains:1 ~epoch_size:1 (Workload.make ~users:64 ()))
      ~execute:(Execution.executor ~app ~config:Config.csod_default ())
  in
  match r.Fleet.first_catch with
  | None -> Alcotest.fail "zziplib not detected within 64 users"
  | Some s ->
    Alcotest.(check (option (pair int string))) "agrees with Evidence.fleet"
      (Some
         (s.Fleet.user.Workload.uid,
          Report.source_name (Option.get s.Fleet.exec.Fleet.source)))
      (Option.map
         (fun (uid, src) -> (uid, Report.source_name src))
         (Evidence.fleet ~app ~users:64 ()));
    Alcotest.(check int) "user uid runs seed uid" s.Fleet.user.Workload.uid
      s.Fleet.user.Workload.seed;
    Alcotest.(check bool) "evidence uploaded" true (Persist.count r.Fleet.store > 0)

let test_json_report () =
  let w = Workload.make ~users:10 () in
  let r = Fleet.run (Fleet.config ~domains:1 ~epoch_size:5 w) ~execute:synthetic in
  match Fleet.to_json ~app:"synthetic" ~config:"test" r with
  | `Assoc fields ->
    Alcotest.(check bool) "schema tagged" true
      (List.assoc_opt "schema" fields = Some (`String "csod.fleet.report/1"));
    Alcotest.(check bool) "epoch rows present" true
      (match List.assoc_opt "epochs" fields with
      | Some (`List (_ :: _)) -> true
      | _ -> false)
  | _ -> Alcotest.fail "expected a JSON object"

(* ---------- Edge cases: empty fleet, one user, burst boundaries ---------- *)

let test_empty_fleet () =
  let w = Workload.make ~users:0 () in
  Alcotest.(check (array int)) "no arrivals" [||]
    (Workload.arrivals w ~epoch_size:32);
  let r = Fleet.run (Fleet.config ~domains:2 ~epoch_size:32 w) ~execute:synthetic in
  Alcotest.(check int) "no seats" 0 (Array.length r.Fleet.seats);
  Alcotest.(check int) "no detections" 0 r.Fleet.detections;
  Alcotest.(check bool) "no first catch" true (r.Fleet.first_catch = None);
  Alcotest.(check bool) "no health samples" true (r.Fleet.health = []);
  Alcotest.(check int) "empty store" 0 (Persist.count r.Fleet.store);
  (* An empty run still renders: a summary with an empty CDF table, and a
     report that conforms. *)
  Alcotest.(check bool) "summary renders" true
    (String.length (Fleet.summary r) > 0);
  Alcotest.(check bool) "empty report conforms" true
    (Schema.conforms Fleet.report_spec (Fleet.to_json ~app:"t" ~config:"c" r)
    = Ok ())

let test_single_user_fleet () =
  let app = zziplib () in
  let w = Workload.make ~users:1 ~base_seed:2 () in
  Alcotest.(check (array int)) "one partial epoch" [| 1 |]
    (Workload.arrivals w ~epoch_size:32);
  let run domains =
    Fleet.run
      (Fleet.config ~domains ~epoch_size:32 w)
      ~execute:(Execution.executor ~app ~config:Config.csod_default ())
  in
  let r1 = run 1 and r2 = run 2 in
  Alcotest.(check int) "one seat" 1 (Array.length r1.Fleet.seats);
  (match r1.Fleet.health with
  | [ row ] ->
    Alcotest.(check int) "arrivals" 1 row.Health.arrivals;
    Alcotest.(check int) "cumulative = detections" r1.Fleet.detections
      row.Health.cumulative
  | _ -> Alcotest.fail "expected exactly one epoch row");
  (* A pool wider than the population must change nothing. *)
  Alcotest.(check bool) "domain count irrelevant" true
    (Fleet.detection_uids r1 = Fleet.detection_uids r2
    && Metrics.counters_list r1.Fleet.metrics
       = Metrics.counters_list r2.Fleet.metrics)

let test_burst_boundaries () =
  (* Wave: the heavy phase starts at epoch 0 — rate 1.5x, so the very
     first epoch takes s + s/2 users, then s/2, alternating. *)
  let wave = Workload.make ~burst:Workload.Wave ~users:200 () in
  let a = Workload.arrivals wave ~epoch_size:32 in
  Alcotest.(check int) "wave heavy at epoch 0" 48 a.(0);
  Alcotest.(check int) "wave light at epoch 1" 16 a.(1);
  Alcotest.(check int) "wave heavy again at epoch 2" 48 a.(2);
  (* Frontload: 2x at launch, decaying, floored at s/2 — never below one
     arrival even for tiny epochs. *)
  let front = Workload.make ~burst:Workload.Frontload ~users:300 () in
  let f = Workload.arrivals front ~epoch_size:32 in
  Alcotest.(check int) "frontload 2x at epoch 0" 64 f.(0);
  Alcotest.(check int) "frontload 1.5x at epoch 1" 48 f.(1);
  Alcotest.(check int) "frontload settles at s/2" 16 f.(4);
  let tiny = Workload.arrivals (Workload.make ~burst:Workload.Wave ~users:7 ()) ~epoch_size:1 in
  Alcotest.(check bool) "epoch_size 1: every epoch still drains" true
    (Array.for_all (fun n -> n >= 1) tiny);
  Alcotest.(check int) "epoch_size 1: sums to users" 7
    (Array.fold_left ( + ) 0 tiny)

(* Regression: a wave whose period exceeds the run length must still
   admit its launch cohort at epoch 0.  Before the heavy-half-first fix a
   long-period wave opened with its trough, so a service driving
   Workload.rate spent the first half-period at the floor rate. *)
let test_wave_period_longer_than_run () =
  let w =
    Workload.make ~burst:Workload.Wave ~wave_period:1000 ~users:100 ()
  in
  Alcotest.(check int) "rate at epoch 0 is the heavy phase" 48
    (Workload.rate w ~epoch_size:32 0);
  let a = Workload.arrivals w ~epoch_size:32 in
  Alcotest.(check int) "epoch 0 admits the launch cohort" 48 a.(0);
  (* The whole run fits inside the heavy half-period: 48 + 48 + 4. *)
  Alcotest.(check int) "drains in 3 epochs" 3 (Array.length a);
  (* General period: heavy half first, then light, repeating. *)
  let p6 = Workload.make ~burst:Workload.Wave ~wave_period:6 ~users:1000 () in
  Alcotest.(check (list int)) "period 6: 3 heavy then 3 light"
    [ 48; 48; 48; 16; 16; 16; 48 ]
    (List.init 7 (Workload.rate p6 ~epoch_size:32));
  (* Odd period: the odd epoch lands on the heavy side. *)
  let p3 = Workload.make ~burst:Workload.Wave ~wave_period:3 ~users:1000 () in
  Alcotest.(check (list int)) "period 3: 2 heavy then 1 light"
    [ 48; 48; 16; 48 ]
    (List.init 4 (Workload.rate p3 ~epoch_size:32));
  (* wave_period 2 is the legacy alternating shape — unchanged. *)
  let legacy = Workload.make ~burst:Workload.Wave ~users:200 () in
  Alcotest.(check int) "default period is 2" 2 legacy.Workload.wave_period

(* The stepping API is the run loop, exposed: driving start/step/finish
   by hand reproduces Fleet.run's seats, tallies and per-epoch counts,
   while the state itself keeps nothing per user. *)
let test_stepping_equals_run () =
  let w = Workload.make ~benign_frac:0.2 ~burst:Workload.Wave ~users:137 () in
  let cfg = Fleet.config ~domains:2 ~epoch_size:20 w in
  let r = Fleet.run cfg ~execute:synthetic in
  let arrivals = Workload.arrivals w ~epoch_size:20 in
  let t = Fleet.start cfg ~execute:synthetic in
  let epochs = Array.to_list (Array.map (fun n -> Fleet.step t ~arrivals:n) arrivals) in
  let r' = Fleet.finish t in
  let seats = Array.concat (List.map (fun (ep : _ Fleet.epoch) -> ep.seats) epochs) in
  Alcotest.(check (list int)) "same detection set" (Fleet.detection_uids r)
    (Fleet.detection_uids { r' with Fleet.seats });
  Alcotest.(check int) "same seat count" (Array.length r.Fleet.seats)
    (Array.length seats);
  Alcotest.(check string) "same merged metrics"
    (Obs_json.to_string (Metrics.to_json r.Fleet.metrics))
    (Obs_json.to_string (Metrics.to_json r'.Fleet.metrics));
  Alcotest.(check (list int)) "same health stream (epoch detections)"
    (List.map (fun (h : Health.sample) -> h.Health.detections) r.Fleet.health)
    (List.map (fun (ep : _ Fleet.epoch) -> ep.detections) epochs);
  (* The epochs' cycles sum to the executor's total virtual work: the
     synthetic executor charges 1 cycle per user. *)
  Alcotest.(check int) "epoch cycles sum to the fleet's virtual work" 137
    (List.fold_left (fun c (ep : _ Fleet.epoch) -> c + ep.cycles) 0 epochs);
  (* The stepped state keeps tallies and the first catch, not seats. *)
  Alcotest.(check int) "finish: same detections" r.Fleet.detections
    r'.Fleet.detections;
  Alcotest.(check int) "finish: no seats kept" 0 (Array.length r'.Fleet.seats);
  Alcotest.(check bool) "finish: no health samples" true (r'.Fleet.health = []);
  (match (r.Fleet.first_catch, r'.Fleet.first_catch) with
  | Some a, Some b ->
    Alcotest.(check int) "finish: same first catch"
      a.Fleet.user.Workload.uid b.Fleet.user.Workload.uid
  | _ -> Alcotest.fail "first catch expected in both");
  (* epoch0/uid0 offsets: serving epochs [k..] with uids [m..] is the
     tail of the same stream. *)
  let t2 = Fleet.start cfg ~execute:synthetic in
  let split = 2 in
  Array.iteri
    (fun e n -> if e < split then ignore (Fleet.step t2 ~arrivals:n))
    arrivals;
  let resumed =
    Fleet.start ~store:(Fleet.store t2) ~epoch0:(Fleet.epoch t2)
      ~uid0:(Fleet.next_uid t2) cfg ~execute:synthetic
  in
  Array.iteri
    (fun e n -> if e >= split then ignore (Fleet.step resumed ~arrivals:n))
    arrivals;
  Alcotest.(check int) "offset resume: same total detections"
    r.Fleet.detections
    (Fleet.detections t2 + Fleet.detections resumed)

(* ---------- Per-worker load stats ---------- *)

let test_map_stats () =
  let results, workers =
    Pool.map_stats ~domains:4 ~record_spans:true 40 ~f:(fun i -> i * i)
  in
  Alcotest.(check (array int)) "results in order"
    (Array.init 40 (fun i -> i * i))
    results;
  Alcotest.(check int) "one worker per slot" 4 (Array.length workers);
  Array.iteri
    (fun i w ->
      Alcotest.(check int) "stats slot matches" i w.Pool.slot;
      Alcotest.(check int) "one span per chunk" w.Pool.executed
        (List.length w.Pool.spans);
      Alcotest.(check bool) "busy time non-negative" true
        (w.Pool.busy_seconds >= 0.0))
    workers;
  Alcotest.(check int) "executed partitions the input" 40
    (Array.fold_left (fun n w -> n + w.Pool.executed) 0 workers);
  (* Width never exceeds the work: 2 chunks on 8 domains is 2 workers, and
     an empty map still returns a (idle) slot-0 worker. *)
  let _, narrow = Pool.map_stats ~domains:8 2 ~f:(fun i -> i) in
  Alcotest.(check int) "width clamped to n" 2 (Array.length narrow);
  let empty, solo = Pool.map_stats ~domains:4 0 ~f:(fun i -> i) in
  Alcotest.(check int) "empty map: no results" 0 (Array.length empty);
  Alcotest.(check int) "empty map: one idle worker" 1 (Array.length solo);
  Alcotest.(check int) "empty map: nothing executed" 0
    solo.(0).Pool.executed

(* ---------- Sharded vs per-user telemetry aggregation ---------- *)

(* An executor with telemetry crafted to stress every merge rule: a
   commutative counter and histogram from every user, a gauge every user
   sets (last definer must win), and a gauge only every third user defines
   (users without it must not vote).  The merged registry must come out
   bit-identical to a per-user fold in uid order, for any domain count. *)
let telemetric ~user ~store:_ =
  let uid = user.Workload.uid in
  let tele = Telemetry.create () in
  let reg = Telemetry.metrics tele in
  Metrics.incr (Metrics.counter_named reg "exec.count");
  Metrics.observe (Metrics.histogram_named reg "exec.size") (uid mod 97);
  Metrics.set (Metrics.gauge_named reg "g.all") uid;
  if uid mod 3 = 0 then Metrics.set (Metrics.gauge_named reg "g.third") (uid * 10);
  Profiler.charge (Telemetry.profiler tele) Profiler.Canary_check uid;
  { Fleet.payload = ();
    detected = false;
    source = None;
    cycles = 1;
    telemetry = Some tele;
    degraded = false }

(* The reference aggregation, computed here rather than by the fleet: fold
   every seat's registry and profile into fresh ones in uid order.  The
   fleet's own registry also carries its pool-crash counter, which stays 0
   without a fault plan. *)
let per_user_fold (r : _ Fleet.report) =
  let metrics = Metrics.create () and profile = Profiler.create () in
  ignore (Metrics.counter_named metrics "fleet.worker_crashes");
  let seats = Array.copy r.Fleet.seats in
  Array.sort
    (fun a b -> compare a.Fleet.user.Workload.uid b.Fleet.user.Workload.uid)
    seats;
  Array.iter
    (fun seat ->
      match seat.Fleet.exec.Fleet.telemetry with
      | Some tele ->
        Metrics.merge_into ~dst:metrics ~src:(Telemetry.metrics tele);
        Profiler.merge_into ~dst:profile ~src:(Telemetry.profiler tele)
      | None -> ())
    seats;
  (metrics, profile)

let aggregate metrics profile =
  ( Metrics.counters_list metrics,
    Metrics.histograms_list metrics,
    Metrics.gauges_list metrics,
    Profiler.to_list profile )

(* Pins the fleet's aggregate to the per-user fold over its own seats. *)
let check_fold domains (r : _ Fleet.report) =
  let metrics, profile = per_user_fold r in
  Alcotest.(check bool)
    (Printf.sprintf "aggregate = per-user fold, %d domains" domains)
    true
    (aggregate r.Fleet.metrics r.Fleet.profile = aggregate metrics profile)

let test_fold_equivalence_synthetic () =
  let w = Workload.make ~users:100 () in
  List.iter
    (fun domains ->
      let r =
        Fleet.run (Fleet.config ~domains ~epoch_size:16 w) ~execute:telemetric
      in
      check_fold domains r;
      (* The fold's own invariant: the last definer (highest uid) wins each
         gauge, users that never define one don't vote. *)
      let gauges = Metrics.gauges_list r.Fleet.metrics in
      Alcotest.(check bool) "g.all: uid 100 wins" true
        (List.exists
           (fun (n, level, high) -> n = "g.all" && level = 100 && high = 100)
           gauges);
      Alcotest.(check bool) "g.third: uid 99 wins" true
        (List.exists
           (fun (n, level, high) -> n = "g.third" && level = 990 && high = 990)
           gauges))
    [ 1; 2; 4 ]

(* Same equivalence over real CSOD executions: the fleet's registry
   and profile equal the per-user fold over its seats, and the whole
   fingerprint is the same at domains 1/2/4. *)
let test_fold_equivalence_real () =
  let app = zziplib () in
  let config = Config.csod_default in
  let w = Workload.make ~benign_frac:0.25 ~users:300 () in
  let fingerprint domains =
    let r =
      Fleet.run
        (Fleet.config ~domains ~epoch_size:32 w)
        ~execute:(Execution.executor ~app ~config ())
    in
    check_fold domains r;
    ( Fleet.detection_uids r,
      epoch_rows r,
      Persist.keys r.Fleet.store,
      aggregate r.Fleet.metrics r.Fleet.profile )
  in
  let reference = fingerprint 1 in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "fingerprint at %d domains = 1 domain" domains)
        true
        (fingerprint domains = reference))
    [ 2; 4 ]

(* ---------- Health stream ---------- *)

let test_health_per_epoch () =
  let w = Workload.make ~users:100 () in
  let streamed = ref [] in
  let r =
    Fleet.run
      (Fleet.config ~domains:2 ~epoch_size:16
         ~on_health:(fun s -> streamed := s :: !streamed)
         w)
      ~execute:telemetric
  in
  let arrivals = Workload.arrivals w ~epoch_size:16 in
  Alcotest.(check int) "one sample per epoch" (Array.length arrivals)
    (List.length r.Fleet.health);
  Alcotest.(check bool) "callback saw the same stream" true
    (List.rev !streamed = r.Fleet.health);
  List.iteri
    (fun i (s : Health.sample) ->
      Alcotest.(check int) "epoch numbering" i s.Health.epoch;
      Alcotest.(check int) "population echoed" 100 s.Health.users;
      Alcotest.(check bool) "cdf consistent" true
        (s.Health.cdf = float_of_int s.Health.cumulative /. 100.0);
      Alcotest.(check bool) "executed covers arrivals" true
        (List.fold_left (fun n d -> n + d.Health.executed) 0 s.Health.domains
        = s.Health.arrivals))
    r.Fleet.health;
  (* Health rows follow the schedule, and cumulative is the running sum
     of the per-epoch detections. *)
  Alcotest.(check (list int)) "arrivals follow the schedule"
    (Array.to_list arrivals)
    (List.map (fun s -> s.Health.arrivals) r.Fleet.health);
  Alcotest.(check (list int)) "cumulative sums the epochs' detections"
    (List.rev
       (snd
          (List.fold_left
             (fun (c, acc) s -> (c + s.Health.detections, (c + s.Health.detections) :: acc))
             (0, []) r.Fleet.health)))
    (List.map (fun s -> s.Health.cumulative) r.Fleet.health);
  (* Degraded-mode accounting comes from the executions themselves. *)
  let degraded_fleet ~user ~store =
    let e = telemetric ~user ~store in
    { e with Fleet.degraded = user.Workload.uid mod 2 = 0 }
  in
  let r2 =
    Fleet.run (Fleet.config ~domains:2 ~epoch_size:16 w)
      ~execute:degraded_fleet
  in
  (match List.rev r2.Fleet.health with
  | last :: _ ->
    Alcotest.(check int) "degraded tally is cumulative" 50 last.Health.degraded
  | [] -> Alcotest.fail "expected health samples");
  (* No trace by default; spans appear only when asked for. *)
  Alcotest.(check bool) "no spans unless traced" true (r.Fleet.trace_spans = []);
  let r3 =
    Fleet.run (Fleet.config ~domains:2 ~epoch_size:16 ~trace:true w)
      ~execute:telemetric
  in
  Alcotest.(check bool) "tracing records a span per user" true
    (List.length
       (List.filter
          (fun (sp : Trace_export.fleet_span) ->
            sp.Trace_export.track < 2 && sp.Trace_export.name <> "barrier wait")
          r3.Fleet.trace_spans)
    = 100)

(* Each health record validates against its spec and decodes back to the
   sample it was built from. *)
let test_health_matches_spec () =
  let r =
    Fleet.run
      (Fleet.config ~domains:2 ~epoch_size:16 (Workload.make ~users:100 ()))
      ~execute:telemetric
  in
  List.iter
    (fun (s : Health.sample) ->
      let j = Health.to_json s in
      (match Schema.conforms Health.spec j with
      | Ok () -> ()
      | Error e -> Alcotest.failf "epoch %d: %s" s.Health.epoch e);
      Alcotest.(check bool) "decodes to the sample" true
        (Schema.decode Health.spec j = Ok s))
    r.Fleet.health;
  match
    Schema.conforms Fleet.report_spec (Fleet.to_json ~app:"t" ~config:"c" r)
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fleet report: %s" e

let suite =
  [ Alcotest.test_case "workload: determinism and mix" `Quick test_workload_determinism;
    Alcotest.test_case "workload: arrival shapes" `Quick test_workload_arrivals;
    Alcotest.test_case "pool: order-preserving map" `Quick test_pool_map;
    Alcotest.test_case "pool: exception propagation" `Quick test_pool_exception;
    Alcotest.test_case "epoch: barrier semantics" `Quick test_epoch_barrier;
    Alcotest.test_case "epoch: report invariants" `Quick test_report_invariants;
    Alcotest.test_case "determinism across domains" `Slow test_determinism_across_domains;
    Alcotest.test_case "sequential path: shared store" `Quick test_until_detected_shared_store;
    Alcotest.test_case "json report" `Quick test_json_report;
    Alcotest.test_case "edge: empty fleet" `Quick test_empty_fleet;
    Alcotest.test_case "edge: single-user fleet" `Quick test_single_user_fleet;
    Alcotest.test_case "edge: burst boundaries" `Quick test_burst_boundaries;
    Alcotest.test_case "wave period longer than the run" `Quick
      test_wave_period_longer_than_run;
    Alcotest.test_case "stepping API equals run" `Quick
      test_stepping_equals_run;
    Alcotest.test_case "pool: map_stats worker stats" `Quick test_map_stats;
    Alcotest.test_case "telemetry = per-user fold: synthetic" `Quick
      test_fold_equivalence_synthetic;
    Alcotest.test_case "telemetry = per-user fold: real runs" `Slow
      test_fold_equivalence_real;
    Alcotest.test_case "health stream: one sample per epoch" `Quick
      test_health_per_epoch;
    Alcotest.test_case "health stream and report match their specs" `Quick
      test_health_matches_spec ]
