type 'a execution = {
  payload : 'a;
  detected : bool;
  source : Report.source option;
  cycles : int;
  telemetry : Telemetry.t option;
  degraded : bool;
}

type 'a executor = user:Workload.user -> store:Persist.t -> 'a execution

type 'a seat = { user : Workload.user; epoch : int; exec : 'a execution }

type 'a epoch = {
  record : Health.t;
  seats : 'a seat array;
  workers : Pool.worker array;
  started_at : float;
  barrier_at : float;
  merged_at : float;
  merge_seconds : float;
}

type 'a report = {
  seats : 'a seat array;
  first_catch : 'a seat option;
  detections : int;
  metrics : Metrics.t;
  profile : Profiler.t;
  store : Persist.t;
  domains : int;
  wall_seconds : float;
  faults : Fault_injector.t option;
  health : Health.t list;
  trace_spans : Trace_export.fleet_span list;
}

type config = {
  workload : Workload.t;
  domains : int;
  epoch_size : int;
  faults : Fault_plan.t option;
  trace : bool;
  on_health : (Health.t -> unit) option;
  patch_threshold : int option;
      (* evidence hits at which the shared store convicts a context; drives
         the [patched] state in epoch records *)
}

let config ?domains ?(epoch_size = 32) ?faults ?(trace = false) ?on_health
    ?patch_threshold workload =
  let domains =
    match domains with Some d -> d | None -> Pool.default_domains ()
  in
  if domains < 1 then invalid_arg "Fleet.config: domains < 1";
  if epoch_size < 1 then invalid_arg "Fleet.config: epoch_size < 1";
  (match patch_threshold with
  | Some n when n < 1 -> invalid_arg "Fleet.config: patch_threshold < 1"
  | _ -> ());
  { workload; domains; epoch_size; faults; trace; on_health; patch_threshold }

(* Fault/degradation counters surfaced per epoch (name-sorted in the
   record); only counters that moved this epoch appear. *)
let fault_counters =
  List.map
    (fun name -> (name, Metrics.counter_key name))
    [ "runtime.degraded"; "runtime.install_failures"; "trap.dropped";
      "trap.delayed"; "persist.corrupt_lines" ]

(* ---- incremental stepping: the state holds nothing O(users) ---- *)

type 'a t = {
  cfg : config;
  execute : 'a executor;
  shared : Persist.t;
  tele : Telemetry.t;
      (* the fleet aggregate: every execution's bundle, folded in uid
         order at the barriers *)
  c_crashes : Metrics.counter;
  pool_faults : Fault_injector.t option;
  t_run0 : float;
  mutable next_uid : int;
  mutable epoch : int;
  mutable detections : int;
  mutable first : 'a seat option;
  mutable arrived : int;
}

let k_crashes = Metrics.counter_key "fleet.worker_crashes"

let start ?store ?(epoch0 = 0) ?(uid0 = 1) cfg ~execute =
  if epoch0 < 0 then invalid_arg "Fleet.start: epoch0 < 0";
  if uid0 < 1 then invalid_arg "Fleet.start: uid0 < 1";
  let shared =
    match store with Some s -> Persist.copy s | None -> Persist.create ()
  in
  let tele = Telemetry.create () in
  (* The pool injector is fleet-wide (salt 0): crash decisions are indexed
     draws keyed by chunk index = uid - 1, so they are identical for any
     domain count.  Registered unconditionally so a zero plan and no plan
     produce byte-identical metrics. *)
  let c_crashes = Metrics.counter (Telemetry.metrics tele) k_crashes in
  { cfg; execute; shared; tele; c_crashes;
    pool_faults =
      Option.map (fun plan -> Fault_injector.create ~plan ~salt:0) cfg.faults;
    t_run0 = Unix.gettimeofday ();
    next_uid = uid0; epoch = epoch0; detections = 0; first = None; arrived = 0 }

let metrics t = Telemetry.metrics t.tele
let store t = t.shared
let first_catch t = t.first
let detections t = t.detections
let arrived t = t.arrived
let next_uid t = t.next_uid
let epoch t = t.epoch

let crashes t =
  match t.pool_faults with
  | Some inj -> Fault_injector.count inj Fault_plan.Worker_crash
  | None -> 0

let step t ~arrivals:n =
  if n < 0 then invalid_arg "Fleet.step: negative arrivals";
  let cfg = t.cfg and e = t.epoch and uid_base = t.next_uid in
  let started_at = Unix.gettimeofday () in
  let users = Array.init n (fun i -> Workload.user cfg.workload (uid_base + i)) in
  t.next_uid <- t.next_uid + n;
  t.arrived <- t.arrived + n;
  let crashes0 = crashes t in
  (* Snapshots are taken in the main domain, before any worker starts:
     every execution of this epoch sees exactly the evidence uploaded by
     previous epochs, no more.  [base] pins that evidence level so the
     barrier can merge back only what each execution added. *)
  let base = Persist.copy t.shared in
  let locals = Array.map (fun _ -> Persist.copy t.shared) users in
  let execs, workers =
    Pool.map_stats ?faults:t.pool_faults ~index_base:(uid_base - 1)
      ~record_spans:cfg.trace ~domains:cfg.domains n
      ~f:(fun i -> t.execute ~user:users.(i) ~store:locals.(i))
  in
  let barrier_at = Unix.gettimeofday () in
  (* Epoch barrier, pass A: fold the fleet's evidence back in, in uid
     (= seed) order so store merges are deterministic. *)
  let seats =
    Array.mapi
      (fun i exec ->
        Persist.merge_delta t.shared ~base locals.(i);
        { user = users.(i); epoch = e; exec })
      execs
  in
  let count p = Array.fold_left (fun k (s : _ seat) -> if p s.exec then k + 1 else k) 0 seats in
  let detections = count (fun x -> x.detected) in
  if t.first = None then t.first <- Array.find_opt (fun s -> s.exec.detected) seats;
  (* Pass B: fold each execution's telemetry into the aggregate, also in
     uid order, so a gauge's level is the highest uid's that defines it.
     Timed on its own so the health stream prices the merge and nothing
     else. *)
  let counts () =
    List.map
      (fun (name, k) ->
        (name, Option.value ~default:0 (Metrics.find_count (metrics t) k)))
      fault_counters
  in
  let faults0 = counts () and snapshots0 = Telemetry.snapshot_count t.tele in
  let (), merge_seconds =
    Pool.timed (fun () ->
        Array.iter
          (fun exec ->
            Option.iter (fun src -> Telemetry.merge_into ~dst:t.tele ~src)
              exec.telemetry)
          execs)
  in
  t.detections <- t.detections + detections;
  t.epoch <- e + 1;
  let record =
    { Health.epoch = e; arrivals = n; detections;
      degraded = count (fun (x : _ execution) -> x.degraded);
      worker_crashes = crashes t - crashes0;
      faults =
        List.map2 (fun (name, now) (_, before) -> (name, now - before)) (counts ()) faults0
        |> List.filter (fun (_, d) -> d <> 0)
        |> List.sort compare;
      snapshots = Telemetry.snapshot_count t.tele - snapshots0;
      cycles = Array.fold_left (fun c (x : _ execution) -> c + x.cycles) 0 execs;
      cycle_skew =
        Health.straggler_skew
          (Array.to_list (Array.map (fun (x : _ execution) -> float_of_int x.cycles) execs));
      store_contexts = Persist.count t.shared;
      patched =
        (* Convicted (= patchable) contexts at this barrier, from the shared
           store only — every domain ordering sees the same store after the
           uid-ordered merge, so the tally is deterministic. *)
        (match cfg.patch_threshold with
        | Some n ->
          List.length
            (List.filter (fun k -> Persist.hits t.shared k >= n) (Persist.keys t.shared))
        | None -> 0);
      wall = None }
  in
  { record; seats; workers; started_at; barrier_at;
    merged_at = Unix.gettimeofday (); merge_seconds }

let finish t =
  Metrics.add t.c_crashes (crashes t);
  { seats = [||]; first_catch = t.first; detections = t.detections;
    metrics = metrics t; profile = Telemetry.profiler t.tele; store = t.shared;
    domains = t.cfg.domains; wall_seconds = Unix.gettimeofday () -. t.t_run0;
    faults = t.pool_faults; health = []; trace_spans = [] }

(* The epoch's wall-clock spans: each worker's user chunks and its wait
   at the barrier, in slot order, then the merge. *)
let spans t (ep : _ epoch) =
  let span track name s0 s1 args =
    { Trace_export.track; name; start_s = s0 -. t.t_run0;
      stop_s = s1 -. t.t_run0; args = ("epoch", `Int ep.record.epoch) :: args }
  in
  List.concat_map
    (fun (wk : Pool.worker) ->
      List.rev_map
        (fun (i, c0, c1) ->
          let uid = ep.seats.(i).user.Workload.uid in
          span wk.slot (Printf.sprintf "user #%d" uid) c0 c1 [ ("uid", `Int uid) ])
        wk.spans
      @
      if wk.executed > 0 && ep.barrier_at > wk.last_stop then
        [ span wk.slot "barrier wait" wk.last_stop ep.barrier_at [] ]
      else [])
    (Array.to_list ep.workers)
  @ [ span t.cfg.domains (Printf.sprintf "epoch %d merge" ep.record.epoch)
        ep.barrier_at ep.merged_at [] ]

let run ?store cfg ~execute =
  let arrivals = Workload.arrivals cfg.workload ~epoch_size:cfg.epoch_size in
  let t = start ?store cfg ~execute in
  let seats = ref [] and health = ref [] in
  let spans_rev = ref [] and observer = ref 0.0 in
  Array.iter
    (fun n ->
      let ep = step t ~arrivals:n in
      let domains =
        Array.to_list ep.workers
        |> List.map (fun (wk : Pool.worker) ->
               { Health.slot = wk.slot; executed = wk.executed;
                 busy_seconds = wk.busy_seconds })
      in
      let record =
        { ep.record with
          wall =
            Some
              { epoch_seconds = ep.merged_at -. ep.started_at;
                merge_seconds = ep.merge_seconds;
                observer_seconds = !observer;
                straggler_skew =
                  Health.straggler_skew
                    (List.map (fun (l : Health.domain_load) -> l.busy_seconds) domains);
                domains } }
      in
      (* The observer effect, self-measured: everything below is pure
         observability and its cost lands in the next record's
         [observer_seconds]. *)
      let (), dt =
        Pool.timed (fun () ->
            seats := ep.seats :: !seats;
            health := record :: !health;
            if cfg.trace then spans_rev := List.rev_append (spans t ep) !spans_rev;
            Option.iter (fun cb -> cb record) cfg.on_health)
      in
      observer := dt)
    arrivals;
  { (finish t) with
    seats = Array.concat (List.rev !seats);
    health = List.rev !health;
    trace_spans = List.rev !spans_rev }

let detection_uids r =
  Array.to_list r.seats
  |> List.filter_map (fun s ->
         if s.exec.detected then Some s.user.Workload.uid else None)

let summary r =
  let users = Array.length r.seats in
  let benign =
    Array.fold_left
      (fun n s -> if s.user.Workload.benign then n + 1 else n)
      0 r.seats
  in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "fleet: %d users (%d benign), %d domain%s, %d epochs\n"
       users benign r.domains
       (if r.domains = 1 then "" else "s")
       (List.length r.health));
  (match r.first_catch with
  | Some s ->
    Buffer.add_string b
      (Printf.sprintf "first catch: user #%d in epoch %d%s\n"
         s.user.Workload.uid s.epoch
         (match s.exec.source with
         | Some src -> " via " ^ Report.source_name src
         | None -> ""))
  | None -> Buffer.add_string b "first catch: none\n");
  Buffer.add_string b
    (Printf.sprintf "detections: %d/%d  store: %d context%s  wall: %.3f s\n"
       r.detections users (Persist.count r.store)
       (if Persist.count r.store = 1 then "" else "s")
       r.wall_seconds);
  Buffer.add_string b (Epoch.table ~users r.health);
  Buffer.contents b

let report_schema = "csod.fleet.report/1"

let to_json ?payload ~app ~config:config_label r : Obs_json.t =
  let users = Array.length r.seats in
  let seat_json s =
    `Assoc
      (List.concat
         [ [ ("uid", `Int s.user.Workload.uid);
             ("seed", `Int s.user.Workload.seed);
             ("benign", `Bool s.user.Workload.benign);
             ("epoch", `Int s.epoch); ("detected", `Bool s.exec.detected);
             ("source",
              match s.exec.source with
              | Some src -> `String (Report.source_name src)
              | None -> `Null);
             ("cycles", `Int s.exec.cycles) ];
           (match payload with
           | Some f -> [ ("payload", f s.exec.payload) ]
           | None -> []) ])
  in
  `Assoc
    (List.concat
       [ [ ("schema", `String report_schema); ("app", `String app);
           ("config", `String config_label); ("users", `Int users);
           ("domains", `Int r.domains);
           ("detections", `Int r.detections);
           ("detection_uids", `List (List.map (fun u -> `Int u) (detection_uids r)));
           ("first_catch",
            match r.first_catch with
            | Some s ->
              `Assoc
                [ ("uid", `Int s.user.Workload.uid); ("epoch", `Int s.epoch);
                  ("source",
                   match s.exec.source with
                   | Some src -> `String (Report.source_name src)
                   | None -> `Null) ]
            | None -> `Null);
           ("store_contexts", `Int (Persist.count r.store));
           ("wall_seconds", `Float r.wall_seconds);
           ("epochs", `List (Epoch.to_json r.health));
           ("metrics", Metrics.to_json r.metrics);
           ("profile", Profiler.to_json r.profile) ];
         (match payload with
         | Some _ ->
           [ ("seats", `List (Array.to_list (Array.map seat_json r.seats))) ]
         | None -> []) ])

let report_spec =
  Schema.make report_schema
    Schema.
      [ ("app", String); ("config", String); ("users", Int); ("domains", Int);
        ("detections", Int); ("detection_uids", List);
        ("first_catch", Nullable Object); ("store_contexts", Int);
        ("wall_seconds", Float); ("epochs", List); ("metrics", Object);
        ("profile", Object) ]
