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

type 'a report = {
  seats : 'a seat array;
  epochs : Epoch.row list;
  first_catch : 'a seat option;
  detections : int;
  metrics : Metrics.t;
  profile : Profiler.t;
  store : Persist.t;
  domains : int;
  wall_seconds : float;
  faults : Fault_injector.t option;
  health : Health.sample list;
  trace_spans : Trace_export.fleet_span list;
}

type config = {
  workload : Workload.t;
  domains : int;
  epoch_size : int;
  faults : Fault_plan.t option;
  trace : bool;
  on_health : (Health.sample -> unit) option;
  patch_threshold : int option;
      (* evidence hits at which the shared store convicts a context; drives
         the per-epoch [patched] tally in health records *)
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

(* Fault/degradation counters surfaced per health record, in this order;
   only counters the merged registry has actually seen appear in the
   stream. *)
let fault_counters =
  List.map
    (fun name -> (name, Metrics.counter_key name))
    [ "runtime.degraded"; "runtime.install_failures"; "trap.dropped";
      "trap.delayed"; "persist.corrupt_lines" ]

(* ---- incremental stepping ----

   The run-to-completion driver below is a thin loop over this state: the
   fleet advances one epoch barrier at a time, so an open-ended service
   can drive it for days of virtual time without knowing the arrival
   schedule upfront.  [lean] keeps memory flat for such callers: per-seat
   and per-epoch accumulation is skipped (only the first detecting seat is
   retained), leaving the store, the merged registries and the running
   tallies — everything O(contexts + counters), nothing O(users). *)

type 'a t = {
  cfg : config;
  execute : 'a executor;
  shared : Persist.t;
  tele : Telemetry.t;
      (* the fleet aggregate: every execution's bundle, folded in uid
         order at the barriers *)
  c_crashes : Metrics.counter;
  pool_faults : Fault_injector.t option;
  expected_users : int option;
  lean : bool;
  t_run0 : float;
  mutable next_uid : int;
  mutable epoch : int;
  mutable seats_rev : 'a seat list;
  mutable detections : int;
  mutable degraded_total : int;
  mutable health_rev : Health.sample list;
  mutable spans_rev : Trace_export.fleet_span list;
  mutable observer_prev : float;
  mutable first : 'a seat option;
  mutable arrived : int;
}

type epoch_result = {
  sample : Health.sample;
  epoch_cycles : int;
  cycle_skew : float;
}

let k_crashes = Metrics.counter_key "fleet.worker_crashes"

let start ?store ?expected_users ?(lean = false) ?(epoch0 = 0) ?(uid0 = 1)
    cfg ~execute =
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
  { cfg;
    execute;
    shared;
    tele;
    c_crashes;
    pool_faults =
      Option.map (fun plan -> Fault_injector.create ~plan ~salt:0) cfg.faults;
    expected_users;
    lean;
    t_run0 = Unix.gettimeofday ();
    next_uid = uid0;
    epoch = epoch0;
    seats_rev = [];
    detections = 0;
    degraded_total = 0;
    health_rev = [];
    spans_rev = [];
    observer_prev = 0.0;
    first = None;
    arrived = 0 }

let metrics t = Telemetry.metrics t.tele
let store t = t.shared
let first_catch t = t.first
let detections t = t.detections
let arrived t = t.arrived
let next_uid t = t.next_uid
let epoch t = t.epoch

let step t ~arrivals:n =
  if n < 0 then invalid_arg "Fleet.step: negative arrivals";
  let cfg = t.cfg in
  let w = cfg.workload in
  let e = t.epoch in
  let t_epoch0 = Unix.gettimeofday () in
  let uid_base = t.next_uid in
  let users = Array.init n (fun i -> Workload.user w (uid_base + i)) in
  t.next_uid <- t.next_uid + n;
  t.arrived <- t.arrived + n;
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
  let t_barrier0 = Unix.gettimeofday () in
  (* Epoch barrier, pass A: fold the fleet's evidence back in, in uid
     (= seed) order so store merges are deterministic. *)
  let epoch_detections = ref 0 in
  let epoch_cycles = ref 0 in
  Array.iteri
    (fun i exec ->
      Persist.merge_delta t.shared ~base locals.(i);
      if exec.degraded then t.degraded_total <- t.degraded_total + 1;
      if exec.detected then incr epoch_detections;
      epoch_cycles := !epoch_cycles + exec.cycles;
      if exec.detected && t.first = None then
        t.first <- Some { user = users.(i); epoch = e; exec };
      if not t.lean then
        t.seats_rev <- { user = users.(i); epoch = e; exec } :: t.seats_rev)
    execs;
  (* Pass B: fold each execution's telemetry into the aggregate, also in
     uid order, so a gauge's level is the highest uid's that defines it.
     Timed on its own so the health stream prices the merge and nothing
     else. *)
  let (), merge_seconds =
    Pool.timed (fun () ->
        Array.iter
          (fun exec ->
            Option.iter (fun src -> Telemetry.merge_into ~dst:t.tele ~src)
              exec.telemetry)
          execs)
  in
  let t_merge1 = Unix.gettimeofday () in
  t.detections <- t.detections + !epoch_detections;
  let epoch_seconds = t_merge1 -. t_epoch0 in
  let loads =
    Array.to_list workers
    |> List.map (fun wk ->
           { Health.slot = wk.Pool.slot; executed = wk.Pool.executed;
             busy_seconds = wk.Pool.busy_seconds })
  in
  let users_total =
    match t.expected_users with Some u -> u | None -> t.arrived
  in
  let sample =
    { Health.epoch = e; arrivals = n; detections = !epoch_detections;
      cumulative = t.detections;
      users = users_total;
      cdf =
        (if users_total > 0 then
           float_of_int t.detections /. float_of_int users_total
         else 0.0);
      store_contexts = Persist.count t.shared;
      patched =
        (* Convicted (= patchable) contexts at this barrier, from the
           shared store only — every domain ordering sees the same store
           after the uid-ordered merge, so the tally is deterministic. *)
        (match cfg.patch_threshold with
        | Some threshold ->
          List.fold_left
            (fun acc k ->
              if Persist.hits t.shared k >= threshold then acc + 1 else acc)
            0 (Persist.keys t.shared)
        | None -> 0);
      degraded = t.degraded_total;
      worker_crashes =
        (match t.pool_faults with
        | Some inj -> Fault_injector.count inj Fault_plan.Worker_crash
        | None -> 0);
      faults =
        List.filter_map
          (fun (name, k) ->
            Option.map (fun v -> (name, v)) (Metrics.find_count (metrics t) k))
          fault_counters;
      snapshots = Telemetry.snapshot_count t.tele;
      epoch_seconds;
      merge_seconds;
      observer_seconds = t.observer_prev;
      execs_per_sec =
        (if epoch_seconds > 0.0 then float_of_int n /. epoch_seconds
         else 0.0);
      straggler_skew =
        Health.straggler_skew
          (List.map (fun l -> l.Health.busy_seconds) loads);
      domains = loads }
  in
  (* The observer effect, self-measured: everything below is pure
     observability (health emission, trace spans) and its cost lands in
     the next record's [observer_seconds]. *)
  let (), obs_dt =
    Pool.timed (fun () ->
        if not t.lean then t.health_rev <- sample :: t.health_rev;
        if cfg.trace then begin
          Array.iter
            (fun wk ->
              List.iter
                (fun (i, c0, c1) ->
                  let uid = uid_base + i in
                  t.spans_rev <-
                    { Trace_export.track = wk.Pool.slot;
                      name = Printf.sprintf "user #%d" uid;
                      start_s = c0 -. t.t_run0;
                      stop_s = c1 -. t.t_run0;
                      args = [ ("epoch", `Int e); ("uid", `Int uid) ] }
                    :: t.spans_rev)
                wk.Pool.spans;
              if wk.Pool.executed > 0 && t_barrier0 > wk.Pool.last_stop then
                t.spans_rev <-
                  { Trace_export.track = wk.Pool.slot;
                    name = "barrier wait";
                    start_s = wk.Pool.last_stop -. t.t_run0;
                    stop_s = t_barrier0 -. t.t_run0;
                    args = [ ("epoch", `Int e) ] }
                  :: t.spans_rev)
            workers;
          t.spans_rev <-
            { Trace_export.track = cfg.domains;
              name = Printf.sprintf "epoch %d merge" e;
              start_s = t_barrier0 -. t.t_run0;
              stop_s = t_merge1 -. t.t_run0;
              args = [ ("epoch", `Int e) ] }
            :: t.spans_rev
        end;
        match cfg.on_health with Some cb -> cb sample | None -> ())
  in
  t.observer_prev <- obs_dt;
  t.epoch <- e + 1;
  { sample;
    epoch_cycles = !epoch_cycles;
    cycle_skew =
      Health.straggler_skew
        (Array.to_list (Array.map (fun x -> float_of_int x.cycles) execs)) }

let finish t =
  (match t.pool_faults with
  | Some inj ->
    Metrics.add t.c_crashes (Fault_injector.count inj Fault_plan.Worker_crash)
  | None -> ());
  let health = List.rev t.health_rev in
  { seats = Array.of_list (List.rev t.seats_rev);
    epochs = List.map Epoch.of_sample health;
    first_catch = t.first;
    detections = t.detections;
    metrics = metrics t;
    profile = Telemetry.profiler t.tele;
    store = t.shared;
    domains = t.cfg.domains;
    wall_seconds = Unix.gettimeofday () -. t.t_run0;
    faults = t.pool_faults;
    health;
    trace_spans = List.rev t.spans_rev }

let run ?store cfg ~execute =
  let arrivals = Workload.arrivals cfg.workload ~epoch_size:cfg.epoch_size in
  let total_users = Array.fold_left ( + ) 0 arrivals in
  let t = start ?store ~expected_users:total_users cfg ~execute in
  Array.iter (fun n -> ignore (step t ~arrivals:n)) arrivals;
  finish t

let until_detected ?store ~users ~execute () =
  let rec go uid =
    if uid > users then None
    else begin
      let user = { Workload.uid; seed = uid; benign = false } in
      let local =
        match store with Some s -> s | None -> Persist.create ()
      in
      let exec = execute ~user ~store:local in
      if exec.detected then Some { user; epoch = uid - 1; exec }
      else go (uid + 1)
    end
  in
  go 1

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
       (List.length r.epochs));
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
  Buffer.add_string b (Epoch.table ~total_users:users r.epochs);
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
           ("epochs", `List (List.map Epoch.to_json r.epochs));
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
