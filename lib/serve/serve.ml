let status_schema = "csod.serve.status/1"
let checkpoint_schema = "csod.serve.checkpoint/1"
let status_period = 0.1

type config = {
  workload : Workload.t;
  domains : int;
  epoch_size : int;
  faults : Fault_plan.t option;
  patch_threshold : int option;
  rules : Alert.rule list;
  windows : int list;
  history_dir : string option;
  rotate : int;
  status_path : string option;
  checkpoint_path : string option;
  checkpoint_every : int;
}

let config ?domains ?(epoch_size = 32) ?faults ?patch_threshold
    ?(rules = Alert.defaults) ?(windows = [ 1; 10; 100 ]) ?history_dir
    ?(rotate = 4096) ?status_path ?checkpoint_path
    ?(checkpoint_every = 0) workload =
  let domains =
    match domains with Some d -> d | None -> Pool.default_domains ()
  in
  (match patch_threshold with
  | Some n when n < 1 -> invalid_arg "Serve.config: patch_threshold < 1"
  | _ -> ());
  if rotate < 1 then invalid_arg "Serve.config: rotate < 1";
  if checkpoint_every < 0 then invalid_arg "Serve.config: checkpoint_every < 0";
  List.iter
    (fun w -> if w < 1 then invalid_arg "Serve.config: window < 1")
    windows;
  { workload; domains; epoch_size; faults; patch_threshold; rules; windows;
    history_dir; rotate; status_path; checkpoint_path; checkpoint_every }

(* Dashboard sizes plus every rule's judging window: one ring each. *)
let all_window_sizes cfg =
  List.sort_uniq compare
    (cfg.windows @ List.map (fun (r : Alert.rule) -> r.window) cfg.rules)

type 'a t = {
  cfg : config;
  fleet : 'a Fleet.t;
  wins : Window.set;
  alerts : Alert.t;
  hist : History.writer option;
  t_start : float;
  (* Wall time of the last refresh; [neg_infinity] until the first
     barrier, so that barrier always refreshes. *)
  mutable refreshed_at : float;
  (* Every observation of the run, merged: the run's tallies (they
     survive checkpoint/resume). *)
  mutable total : Window.agg;
  (* [total] when this fleet session began: the session's registries
     restart at zero after a resume, so its cumulatives count from here. *)
  base : Window.agg;
  mutable last_obs : Serve_obs.t option;
}

let virtual_seconds_of cycles =
  float_of_int cycles /. float_of_int Cost.cycles_per_second

(* Meta body: the deterministic run description — everything here must be
   independent of the domain count, or history segments would differ
   across --domains. *)
let meta_body cfg : Obs_json.t =
  let w = cfg.workload in
  `Assoc
    [ ("workload",
       `Assoc
         [ ("users", `Int w.Workload.users);
           ("benign_frac", `Float w.Workload.benign_frac);
           ("base_seed", `Int w.Workload.base_seed);
           ("burst", `String (Workload.burst_name w.Workload.burst));
           ("wave_period", `Int w.Workload.wave_period) ]);
      ("epoch_size", `Int cfg.epoch_size);
      ("faults",
       match cfg.faults with
       | Some p -> `String (Fault_plan.to_string p)
       | None -> `Null);
      ("patch_threshold",
       match cfg.patch_threshold with Some n -> `Int n | None -> `Null);
      ("alerts",
       `List (List.map (fun r -> `String (Alert.to_spec r)) cfg.rules));
      ("windows", `List (List.map (fun w -> `Int w) cfg.windows)) ]

(* ---- status ---- *)

let cdf ~detections ~arrived =
  if arrived > 0 then float_of_int detections /. float_of_int arrived else 0.0

let status_core ~(total : Window.agg) ~last ~wins ~alerts ~window_sizes :
    (string * Obs_json.t) list =
  [ ("schema", `String status_schema); ("epoch", `Int (total.last_epoch + 1));
    ("arrived", `Int total.arrivals); ("detections", `Int total.detections);
    ("patched", `Int total.patched);
    ("cdf", `Float (cdf ~detections:total.detections ~arrived:total.arrivals));
    ("virtual_seconds", `Float (virtual_seconds_of total.cycles));
    ("last",
     match last with Some o -> Serve_obs.to_json o | None -> `Null);
    ("windows",
     `Assoc
       (List.filter_map
          (fun w ->
            Option.map
              (fun a -> (string_of_int w, Window.agg_to_json a))
              (Window.get wins w))
          window_sizes));
    ("alerts",
     `Assoc
       [ ("rules",
          `List
            (List.map
               (fun r -> (`String (Alert.to_spec r) : Obs_json.t))
               (Alert.rules alerts)));
         ("firing",
          `List
            (List.map
               (fun ((r : Alert.rule), since) ->
                 (`Assoc
                    [ ("spec", `String (Alert.to_spec r));
                      ("since", `Int since) ]
                   : Obs_json.t))
               (Alert.firing alerts))) ]) ]

(* [now]: one clock reading gives both wall members. *)
let status_at t ~now : Obs_json.t =
  `Assoc
    (status_core ~total:t.total ~last:t.last_obs ~wins:t.wins ~alerts:t.alerts
       ~window_sizes:t.cfg.windows
    @ [ ("wall",
         `Assoc
           [ ("domains", `Int t.cfg.domains);
             ("wall_seconds", `Float (now -. t.t_start));
             ("unix_time", `Float now) ]) ])

let status_json t = status_at t ~now:(Unix.gettimeofday ())

let status_spec =
  Schema.make status_schema
    Schema.
      [ ("epoch", Int); ("arrived", Int); ("detections", Int);
        ("patched", Int); ("cdf", Float); ("virtual_seconds", Float);
        ("last", Nullable Object); ("windows", Object); ("alerts", Object) ]
    ~check:(fun json ->
      let field k = Option.get (Obs_json.member k json) in
      let cdf = Schema.float json "cdf" in
      let aggs = match field "windows" with `Assoc l -> l | _ -> [] in
      if cdf < 0. || cdf > 1. then Error "cdf out of [0, 1]"
      else if field "last" <> `Null && Serve_obs.of_json (field "last") = None
      then Error "malformed last observation"
      else if List.exists (fun (_, a) -> Window.agg_of_json a = None) aggs
      then Error "malformed window aggregate"
      else
        Schema.has_fields Schema.[ ("rules", List); ("firing", List) ]
          (field "alerts"))

let publish_status t ~now =
  match t.cfg.status_path with
  | None -> ()
  | Some path ->
    Atomic_file.write path (Obs_json.to_string (status_at t ~now) ^ "\n")

(* ---- checkpoint ---- *)

let checkpoint_json t : Obs_json.t =
  let a = t.total in
  `Assoc
    [ ("schema", `String checkpoint_schema);
      ("epoch", `Int (Fleet.epoch t.fleet));
      ("next_uid", `Int (Fleet.next_uid t.fleet));
      ("arrived", `Int a.arrivals); ("detections", `Int a.detections);
      ("total_cycles", `Int a.cycles); ("patched", `Int a.patched);
      ("degraded", `Int a.degraded);
      ("worker_crashes", `Int a.worker_crashes);
      ("snapshots", `Int a.snapshots);
      ("faults", `Assoc (List.map (fun (k, v) -> (k, `Int v)) a.faults));
      ("store",
       (* [site; off; hits]: evidence counts survive the checkpoint so a
          resumed service keeps its convictions. *)
       `List
         (let store = Fleet.store t.fleet in
          List.map
            (fun (a, b) ->
              (`List [ `Int a; `Int b; `Int (Persist.hits store (a, b)) ]
                : Obs_json.t))
            (Persist.keys store)));
      ("windows", Window.set_to_json t.wins);
      ("alerts", Alert.states_to_json t.alerts);
      ("history",
       match t.hist with
       | Some w ->
         `Assoc
           [ ("seq", `Int (History.seq w));
             ("segment", `Int (History.segment w));
             ("lines", `Int (History.lines_in_segment w)) ]
       | None -> `Null) ]

let publish_checkpoint t =
  match t.cfg.checkpoint_path with
  | None -> ()
  | Some path ->
    Atomic_file.write path (Obs_json.to_string (checkpoint_json t) ^ "\n")

(* ---- start / resume ---- *)

(* A service over [total]'s run so far, its fleet session starting at
   [total]'s next epoch. *)
let make cfg ~execute ?store ?uid0 ~total ~wins ~alerts hist =
  { cfg;
    fleet =
      Fleet.start ?store ?uid0 ~lean:true ~epoch0:(total.Window.last_epoch + 1)
        (Fleet.config ~domains:cfg.domains ~epoch_size:cfg.epoch_size
           ?faults:cfg.faults ?patch_threshold:cfg.patch_threshold cfg.workload)
        ~execute;
    wins; alerts; hist;
    t_start = Unix.gettimeofday ();
    refreshed_at = neg_infinity;
    total; base = total; last_obs = None }

let fresh cfg ~execute =
  let hist =
    Option.map (fun dir -> History.writer ~rotate:cfg.rotate dir)
      cfg.history_dir
  in
  let t =
    make cfg ~execute ~total:Window.empty
      ~wins:(Window.set (all_window_sizes cfg)) ~alerts:(Alert.engine cfg.rules)
      hist
  in
  (* The meta record leads the history; only the first session writes it
     (seq 0), so a resumed run's segments stay byte-identical to an
     uninterrupted one's. *)
  (match t.hist with
  | Some w when History.seq w = 0 ->
    ignore (History.append w History.Meta (meta_body cfg))
  | _ -> ());
  t

let checkpoint_fields =
  Schema.
    [ ("epoch", Int); ("next_uid", Int); ("arrived", Int);
      ("detections", Int); ("total_cycles", Int); ("degraded", Int);
      ("worker_crashes", Int); ("snapshots", Int); ("faults", Object);
      ("store", List); ("windows", Object); ("alerts", List);
      ("history", Nullable Object) ]

(* The checkpoint decoder: everything [resume] restores, before it is
   matched against the configuration. *)
let decode_checkpoint json =
  let ( let* ) = Option.bind in
  let* () =
    match Obs_json.member "schema" json with
    | Some (`String s) when s = checkpoint_schema ->
      Result.to_option (Schema.has_fields checkpoint_fields json)
    | _ -> None
  in
  let int = Schema.int json and get k = Option.get (Obs_json.member k json) in
  let* faults = Obs_json.counts (get "faults") in
  (* [site; off] (pre-respond, hits = 1) or [site; off; hits]. *)
  let key = function
    | `List [ `Int a; `Int b ] -> Some (a, b, 1)
    | `List [ `Int a; `Int b; `Int h ] when h >= 1 -> Some (a, b, h)
    | _ -> None
  in
  let* store_keys =
    match get "store" with `List l -> Obs_json.all key l | _ -> None
  in
  let* wins = Window.set_of_json (get "windows") in
  let* history =
    match get "history" with
    | `Null -> Some None
    | h -> (
      match Obs_json.(member "seq" h, member "segment" h, member "lines" h) with
      | Some (`Int seq), Some (`Int segment), Some (`Int lines) ->
        Some (Some (seq, segment, lines))
      | _ -> None)
  in
  let epoch = int "epoch" in
  let total =
    { Window.empty with
      epochs = epoch; first_epoch = (if epoch > 0 then 0 else -1);
      last_epoch = epoch - 1; arrivals = int "arrived";
      detections = int "detections"; cycles = int "total_cycles";
      (* Absent in pre-respond checkpoints: read as 0. *)
      patched =
        (match Obs_json.member "patched" json with Some (`Int n) -> n | _ -> 0);
      degraded = int "degraded"; worker_crashes = int "worker_crashes";
      snapshots = int "snapshots"; faults }
  in
  Some (total, int "next_uid", store_keys, wins, history)

let checkpoint_spec =
  Schema.make checkpoint_schema checkpoint_fields ~check:(fun j ->
      if decode_checkpoint j = None then Error "malformed checkpoint" else Ok ())

let resume cfg ~execute json =
  match decode_checkpoint json with
  | None -> Error "malformed checkpoint"
  | Some (total, next_uid, store_keys, wins, history) ->
    let alerts = Alert.engine cfg.rules in
    let ok =
      match Obs_json.member "alerts" json with
      | Some states -> Alert.restore_states alerts states
      | None -> false
    in
    if not ok then Error "checkpoint alert states do not match the rule set"
    else if Window.sizes wins <> all_window_sizes cfg then
      Error "checkpoint window sizes do not match the configuration"
    else begin
      let store = Persist.create () in
      List.iter
        (fun (a, b, h) ->
          for _ = 1 to h do Persist.add store (a, b) done)
        store_keys;
      let hist =
        match (cfg.history_dir, history) with
        | Some dir, Some (seq, segment, lines) ->
          History.truncate dir ~segment ~lines;
          Some (History.writer ~rotate:cfg.rotate ~seq ~segment ~lines dir)
        | Some dir, None -> Some (History.writer ~rotate:cfg.rotate dir)
        | None, _ -> None
      in
      Ok (make cfg ~execute ~store ~uid0:next_uid ~total ~wins ~alerts hist)
    end

let start cfg ~execute =
  match cfg.checkpoint_path with
  | Some path when Sys.file_exists path -> (
    let ic = open_in path in
    let len = in_channel_length ic in
    let content = really_input_string ic len in
    close_in ic;
    match Obs_json.of_string (String.trim content) with
    | Error e -> Error (Printf.sprintf "checkpoint %s: %s" path e)
    | Ok json -> resume cfg ~execute json)
  | _ -> Ok (fresh cfg ~execute)

(* ---- the epoch ---- *)

type outcome = {
  obs : Serve_obs.t;
  events : Alert.event list;
  refreshed : bool;
}

let step t =
  let e = Fleet.epoch t.fleet in
  let total = t.total and base = t.base in
  let n =
    min
      (t.cfg.workload.Workload.users - total.arrivals)
      (Workload.rate t.cfg.workload ~epoch_size:t.cfg.epoch_size e)
    |> max 0
  in
  let r = Fleet.step t.fleet ~arrivals:n in
  let s = r.Fleet.sample in
  (* The sample's tallies are fleet-session cumulatives, counted from
     [base]: the epoch's delta is [base + s - total].  [patched] is
     instead a state count over the restored store, so its delta is
     [s - total], never negative. *)
  let delta field now = field base + now - field total in
  let count k l = Option.value ~default:0 (List.assoc_opt k l) in
  let faults =
    List.filter_map
      (fun (k, v) ->
        let d = count k base.faults + v - count k total.faults in
        if d <> 0 then Some (k, d) else None)
      s.Health.faults
    |> List.sort compare
  in
  let arrived = total.arrivals + n in
  let cumulative = total.detections + s.Health.detections in
  let obs =
    { Serve_obs.epoch = e; arrivals = n; arrived;
      detections = s.Health.detections; cumulative;
      cdf = cdf ~detections:cumulative ~arrived;
      store_contexts = s.Health.store_contexts;
      patched = max 0 (s.Health.patched - total.patched);
      degraded = delta (fun a -> a.Window.degraded) s.Health.degraded;
      worker_crashes =
        delta (fun a -> a.Window.worker_crashes) s.Health.worker_crashes;
      faults;
      snapshots = delta (fun a -> a.Window.snapshots) s.Health.snapshots;
      cycles = r.Fleet.epoch_cycles;
      virtual_seconds =
        virtual_seconds_of (total.cycles + r.Fleet.epoch_cycles);
      cycle_skew = r.Fleet.cycle_skew }
  in
  t.total <- Window.merge total (Window.of_obs obs);
  Window.push_set t.wins obs;
  let events = Alert.observe t.alerts t.wins ~epoch:e in
  (match t.hist with
  | Some w ->
    ignore (History.append w History.Health (Serve_obs.to_json obs));
    List.iter
      (fun ev -> ignore (History.append w History.Alert (Alert.event_to_json ev)))
      events
  | None -> ());
  t.last_obs <- Some obs;
  (* Wall-paced: the status is republished at most once per
     [status_period], and at once if the clock stepped backwards. *)
  let now = Unix.gettimeofday () in
  let refreshed =
    now -. t.refreshed_at >= status_period || now < t.refreshed_at
  in
  if refreshed then begin
    t.refreshed_at <- now;
    publish_status t ~now
  end;
  let completed = e + 1 in
  if t.cfg.checkpoint_every > 0 && completed mod t.cfg.checkpoint_every = 0
  then publish_checkpoint t;
  { obs; events; refreshed }

let finish t =
  publish_status t ~now:(Unix.gettimeofday ());
  publish_checkpoint t;
  (match t.hist with Some w -> History.close w | None -> ());
  Fleet.finish t.fleet

let epoch t = Fleet.epoch t.fleet
let arrived t = t.total.arrivals
let detections t = t.total.detections
let last t = t.last_obs
let windows t = t.wins

(* ---- rendering ---- *)

let render_status ?(color = true) json =
  match Schema.conforms status_spec json with
  | Error _ -> None
  | Ok () ->
    let c code s = if color then Printf.sprintf "\x1b[%sm%s\x1b[0m" code s else s in
    let int = Schema.int json and flt = Schema.float json in
    let get k = Option.get (Obs_json.member k json) in
    let b = Buffer.create 1024 in
    Buffer.add_string b
      (Printf.sprintf "%s  epoch %d  virtual %.1f s\n"
         (c "1" "csod serve") (int "epoch") (flt "virtual_seconds"));
    Buffer.add_string b
      (Printf.sprintf
         "arrived %d  detections %d  cdf %.2f%%  store %s%s\n"
         (int "arrived") (int "detections")
         (100.0 *. flt "cdf")
         (match Serve_obs.of_json (get "last") with
          | Some o -> string_of_int o.Serve_obs.store_contexts
          | None -> "-")
         (let p = int "patched" in
          if p > 0 then Printf.sprintf "  patched %d" p else ""));
    (match get "windows" with
    | `Assoc wins when wins <> [] ->
      Buffer.add_string b
        (c "2"
           "window   epochs  arrivals  detect  degraded  crashes   skew     cdf\n");
      List.iter
        (fun (w, agg) ->
          let a = Option.get (Window.agg_of_json agg) in
          Buffer.add_string b
            (Printf.sprintf "%6s  %7d  %8d  %6d  %8d  %7d  %5.2f  %5.2f%%\n" w
               a.Window.epochs a.Window.arrivals a.Window.detections
               a.Window.degraded a.Window.worker_crashes a.Window.skew_max
               (100.0 *. a.Window.cdf_last)))
        wins
    | _ -> ());
    let list k f =
      match Obs_json.member k (get "alerts") with
      | Some (`List l) -> List.filter_map f l
      | _ -> []
    in
    let firing =
      list "firing" (fun f ->
          match Obs_json.(member "spec" f, member "since" f) with
          | Some (`String s), Some (`Int since) -> Some (s, since)
          | _ -> None)
    in
    let rules = list "rules" (function `String s -> Some s | _ -> None) in
    Buffer.add_string b "alerts: ";
    if rules = [] then Buffer.add_string b "(none)"
    else
      Buffer.add_string b
        (String.concat "  "
           (List.map
              (fun spec ->
                match List.assoc_opt spec firing with
                | Some since ->
                  c "31;1" (Printf.sprintf "%s FIRING since %d" spec since)
                | None -> Printf.sprintf "%s %s" spec (c "32" "ok"))
              rules));
    Buffer.add_char b '\n';
    Some (Buffer.contents b)

(* ---- offline replay ---- *)

type replay = {
  meta : Obs_json.t option;
  observations : Serve_obs.t list;
  recorded : Obs_json.t list;
  recomputed : Obs_json.t list;
  mismatches : string list;
  read_errors : string list;
  status : Obs_json.t;
}

let replay dir =
  let records, read_errors = History.read dir in
  let meta =
    List.find_map
      (fun (r : History.record) ->
        if r.kind = History.Meta then Some r.body else None)
      records
  in
  match meta with
  | None -> Error (Printf.sprintf "%s: no meta record in history" dir)
  | Some meta_json -> (
    let rules =
      match Obs_json.member "alerts" meta_json with
      | Some (`List l) ->
        let specs =
          List.filter_map (function `String s -> Some s | _ -> None) l
        in
        Result.value ~default:Alert.defaults
          (Alert.parse (String.concat "," specs))
      | _ -> Alert.defaults
    in
    let window_sizes =
      match Obs_json.member "windows" meta_json with
      | Some (`List l) -> List.filter_map Obs_json.to_int l
      | _ -> [ 1; 10; 100 ]
    in
    let observations =
      List.filter_map
        (fun (r : History.record) ->
          if r.kind = History.Health then Serve_obs.of_json r.body else None)
        records
    in
    let recorded =
      List.filter_map
        (fun (r : History.record) ->
          if r.kind = History.Alert then Some r.body else None)
        records
    in
    (* Re-drive the windows and rules over the recorded health stream:
       the alert stream is a pure function of it. *)
    let all_sizes =
      List.sort_uniq compare
        (window_sizes @ List.map (fun (r : Alert.rule) -> r.window) rules)
    in
    let wins = Window.set all_sizes in
    let alerts = Alert.engine rules in
    let recomputed =
      List.concat_map
        (fun (o : Serve_obs.t) ->
          Window.push_set wins o;
          List.map Alert.event_to_json
            (Alert.observe alerts wins ~epoch:o.Serve_obs.epoch))
        observations
    in
    let rec diff i rec_l comp_l acc =
      match (rec_l, comp_l) with
      | [], [] -> List.rev acc
      | r :: rt, c :: ct ->
        let acc =
          if Obs_json.to_string r = Obs_json.to_string c then acc
          else
            Printf.sprintf "alert %d differs: recorded %s, recomputed %s" i
              (Obs_json.to_string r) (Obs_json.to_string c)
            :: acc
        in
        diff (i + 1) rt ct acc
      | r :: rt, [] ->
        diff (i + 1) rt []
          (Printf.sprintf "alert %d only recorded: %s" i
             (Obs_json.to_string r)
          :: acc)
      | [], c :: ct ->
        diff (i + 1) [] ct
          (Printf.sprintf "alert %d only recomputed: %s" i
             (Obs_json.to_string c)
          :: acc)
    in
    let mismatches = diff 0 recorded recomputed [] in
    let last_obs =
      match List.rev observations with [] -> None | o :: _ -> Some o
    in
    let total =
      List.fold_left
        (fun a o -> Window.merge a (Window.of_obs o))
        Window.empty observations
    in
    let status : Obs_json.t =
      `Assoc (status_core ~total ~last:last_obs ~wins ~alerts ~window_sizes)
    in
    Ok
      { meta = Some meta_json; observations; recorded; recomputed;
        mismatches; read_errors; status })
