let status_schema = "csod.serve.status/1"
let checkpoint_schema = "csod.serve.checkpoint/2"
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
  if checkpoint_path <> None && history_dir = None then
    invalid_arg "Serve.config: a checkpoint needs a history directory";
  List.iter
    (fun w -> if w < 1 then invalid_arg "Serve.config: window < 1")
    windows;
  { workload; domains; epoch_size; faults; patch_threshold; rules; windows;
    history_dir; rotate; status_path; checkpoint_path; checkpoint_every }

(* What the windows and alerts of a run derive from besides its health
   stream: its rules and dashboard sizes. *)
type meta = { rules : Alert.rule list; windows : int list }

(* One health observation through the windows and the rules: the live
   loop and [rebuild] both advance through this. *)
let feed wins alerts (o : Serve_obs.t) =
  Window.push_set wins o;
  Alert.observe alerts wins ~epoch:o.epoch

type rebuilt = {
  total : Window.agg;
  wins : Window.set;
  alerts : Alert.t;
  last : Serve_obs.t option;
  events : Obs_json.t list;  (* the alert bodies the stream derives *)
}

(* The service's view after a health stream, from fresh rings (dashboard
   sizes plus every rule's judging window) and rules: what a resume
   continues from and what [replay] checks the recorded alerts against. *)
let rebuild m observations =
  let wins =
    Window.set
      (m.windows @ List.map (fun (r : Alert.rule) -> r.window) m.rules)
  and alerts = Alert.engine m.rules in
  let events =
    List.concat_map
      (fun o -> List.map Alert.event_to_json (feed wins alerts o))
      observations
  in
  { total =
      List.fold_left
        (fun a o -> Window.merge a (Window.of_obs o))
        Window.empty observations;
    wins; alerts;
    last = List.fold_left (fun _ o -> Some o) None observations;
    events }

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
  (* Every observation of the run, merged: the run's tallies (a resume
     rebuilds them from the history). *)
  mutable total : Window.agg;
  mutable last_obs : Serve_obs.t option;
}

let virtual_seconds_of cycles =
  float_of_int cycles /. float_of_int Cost.cycles_per_second

(* Meta body: the deterministic run description — everything here must be
   independent of the domain count, or history segments would differ
   across --domains.  A resume compares it whole with the recorded one. *)
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
  Schema.of_decoder status_schema
    Schema.
      [ ("epoch", Int); ("arrived", Int); ("detections", Int);
        ("patched", Int); ("cdf", Float); ("virtual_seconds", Float);
        ("last", Nullable Object); ("windows", Object); ("alerts", Object) ]
    (fun json ->
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

(* ---- history, read back ---- *)

(* The rules and dashboard sizes a meta record names.  Strict: a missing
   or mistyped member is an error naming it, never a default. *)
let meta_of_json json =
  let list k f =
    match Obs_json.member k json with
    | Some (`List l) -> Obs_json.all f l
    | _ -> None
  in
  match
    ( list "alerts" (function `String s -> Some s | _ -> None),
      list "windows" (function `Int w when w >= 1 -> Some w | _ -> None) )
  with
  | None, _ -> Error "meta record: \"alerts\" is not a list of rule specs"
  | _, None -> Error "meta record: \"windows\" is not a list of sizes >= 1"
  | Some specs, Some windows ->
    Result.map
      (fun rules -> { rules; windows })
      (Result.map_error (( ^ ) "meta record: \"alerts\": ")
         (Alert.parse (String.concat "," specs)))

(* Alert bodies compared in stream order, one line per difference. *)
let alert_mismatches recorded recomputed =
  let strings l = Array.of_list (List.map Obs_json.to_string l) in
  let r = strings recorded and c = strings recomputed in
  let at a i = if i < Array.length a then a.(i) else "(none)" in
  List.init (max (Array.length r) (Array.length c)) Fun.id
  |> List.filter_map (fun i ->
         if at r i = at c i then None
         else
           Some
             (Printf.sprintf "alert %d differs: recorded %s, recomputed %s" i
                (at r i) (at c i)))

(* ---- checkpoint ---- *)

(* The evidence store and the history position: the rest of the service's
   state is rebuilt from the history. *)
let publish_checkpoint t =
  match (t.cfg.checkpoint_path, t.hist) with
  | Some path, Some w ->
    let store = Fleet.store t.fleet in
    let json : Obs_json.t =
      `Assoc
        [ ("schema", `String checkpoint_schema);
          ("epoch", `Int (Fleet.epoch t.fleet));
          ("store",
           `List
             (List.map
                (fun (a, b) ->
                  (`List [ `Int a; `Int b; `Int (Persist.hits store (a, b)) ]
                    : Obs_json.t))
                (Persist.keys store)));
          ("history",
           `Assoc
             [ ("seq", `Int (History.seq w));
               ("segment", `Int (History.segment w));
               ("lines", `Int (History.lines_in_segment w)) ]) ]
    in
    Atomic_file.write path (Obs_json.to_string json ^ "\n")
  | _ -> ()

(* The epoch, the store's [(site, off, hits)] and the history position:
   the one decoder [resume] and [validate] read a checkpoint with. *)
let checkpoint =
  Schema.of_decoder checkpoint_schema
    Schema.[ ("epoch", Int); ("store", List); ("history", Object) ]
    (fun json ->
      let hit = function
        | `List [ `Int a; `Int b; `Int h ] when h >= 1 -> Some (a, b, h)
        | _ -> None
      in
      let get k = Option.get (Obs_json.member k json) in
      let position =
        let h = get "history" in
        match Obs_json.(member "seq" h, member "segment" h, member "lines" h) with
        | Some (`Int seq), Some (`Int segment), Some (`Int lines)
          when seq >= 1 && segment >= 0 && lines >= 0 ->
          Some (seq, segment, lines)
        | _ -> None
      in
      match ((match get "store" with `List l -> Obs_json.all hit l | _ -> None),
             position) with
      | _ when Schema.int json "epoch" < 0 -> Error "negative epoch"
      | None, _ -> Error "malformed store"
      | _, None -> Error "malformed history position"
      | Some store, Some position -> Ok (Schema.int json "epoch", store, position))

let checkpoint_spec = Schema.erase checkpoint

(* ---- start / resume ---- *)

(* A service continuing [r]'s run, its fleet session starting at the next
   epoch and uid. *)
let make cfg ~execute ?store (r : rebuilt) hist =
  { cfg;
    fleet =
      Fleet.start ?store ~uid0:(r.total.arrivals + 1)
        ~epoch0:(r.total.last_epoch + 1)
        (Fleet.config ~domains:cfg.domains ~epoch_size:cfg.epoch_size
           ?faults:cfg.faults ?patch_threshold:cfg.patch_threshold cfg.workload)
        ~execute;
    wins = r.wins; alerts = r.alerts; hist;
    t_start = Unix.gettimeofday ();
    refreshed_at = neg_infinity;
    total = r.total; last_obs = r.last }

let fresh cfg ~execute =
  let hist =
    Option.map (fun dir -> History.writer ~rotate:cfg.rotate dir)
      cfg.history_dir
  in
  (* The meta record leads the history; a resumed session continues
     after it, so its segments stay byte-identical to an uninterrupted
     run's. *)
  Option.iter (fun w -> ignore (History.append w History.Meta (meta_body cfg)))
    hist;
  make cfg ~execute (rebuild { rules = cfg.rules; windows = cfg.windows } []) hist

(* The leaves of [configured] that [recorded] does not repeat, dotted
   ("workload.base_seed"): what a refused resume names. *)
let differing recorded configured =
  let rec leaves name : Obs_json.t -> (string * string) list = function
    | `Assoc kvs ->
      List.concat_map
        (fun (k, v) -> leaves (if name = "" then k else name ^ "." ^ k) v)
        kvs
    | v -> [ (name, Obs_json.to_string v) ]
  in
  let kept = leaves "" recorded in
  List.filter_map
    (fun (k, v) -> if List.assoc_opt k kept = Some v then None else Some k)
    (leaves "" configured)

(* Cut the history back to the checkpoint's position, then replay what is
   kept: it must be this configuration's run, whole, as long as the
   checkpoint, with the alerts its health stream derives. *)
let resume cfg ~execute ~dir (epoch, hits, (seq, segment, lines)) =
  History.truncate dir ~segment ~lines;
  let log = History.read dir and configured = meta_body cfg in
  let r =
    rebuild { rules = cfg.rules; windows = cfg.windows } log.observations
  in
  let refused fmt = Printf.ksprintf (fun m -> Error ("history " ^ dir ^ m)) fmt in
  match (log.errors, log.meta, alert_mismatches log.alerts r.events) with
  | e :: _, _, _ -> refused ": %s" e
  | [], None, _ -> refused ": no meta record"
  | [], Some m, _ when Obs_json.to_string m <> Obs_json.to_string configured ->
    refused " was written by another configuration (%s)"
      (match differing m configured with
       | [] -> "meta record"
       | fields -> String.concat ", " fields)
  | _ when List.length log.observations <> epoch ->
    refused " holds %d epochs, the checkpoint %d"
      (List.length log.observations) epoch
  | _, _, m :: _ -> refused ": %s" m
  | _ ->
    let store = Persist.create () in
    List.iter
      (fun (a, b, h) -> for _ = 1 to h do Persist.add store (a, b) done)
      hits;
    Ok
      (make cfg ~execute ~store r
         (Some (History.writer ~rotate:cfg.rotate ~seq ~segment ~lines dir)))

let start cfg ~execute =
  match (cfg.checkpoint_path, cfg.history_dir) with
  | Some path, Some dir when Sys.file_exists path ->
    Result.map_error
      (Printf.sprintf "cannot resume from %s: %s" path)
      (Result.bind
         (Obs_json.of_string
            (String.trim (In_channel.with_open_bin path In_channel.input_all)))
         (fun json ->
           Result.bind (Schema.decode checkpoint json) (resume cfg ~execute ~dir)))
  | _, Some dir when History.segments dir <> [] ->
    Error
      (Printf.sprintf
         "history %s already holds a run and no checkpoint resumes it: a \
          fresh run would append a second one"
         dir)
  | _ -> Ok (fresh cfg ~execute)

(* ---- the epoch ---- *)

type outcome = {
  obs : Serve_obs.t;
  events : Alert.event list;
  refreshed : bool;
}

let step t =
  let e = Fleet.epoch t.fleet in
  let total = t.total in
  let n =
    min
      (t.cfg.workload.Workload.users - total.arrivals)
      (Workload.rate t.cfg.workload ~epoch_size:t.cfg.epoch_size e)
    |> max 0
  in
  let ep = Fleet.step t.fleet ~arrivals:n in
  let arrived = total.arrivals + n in
  let cumulative = total.detections + ep.detections in
  let obs =
    { Serve_obs.epoch = e; arrivals = n; arrived;
      detections = ep.detections; cumulative;
      cdf = cdf ~detections:cumulative ~arrived;
      store_contexts = ep.store_contexts;
      (* [patched] counts convicted contexts in the store, which a resume
         restores: the run's tally so far is the newly convicted ones. *)
      patched = max 0 (ep.patched - total.patched);
      degraded = ep.degraded;
      worker_crashes = ep.worker_crashes;
      faults = List.sort compare (List.filter (fun (_, d) -> d <> 0) ep.faults);
      snapshots = ep.snapshots;
      cycles = ep.cycles;
      virtual_seconds = virtual_seconds_of (total.cycles + ep.cycles);
      cycle_skew = ep.cycle_skew }
  in
  t.total <- Window.merge total (Window.of_obs obs);
  let events = feed t.wins t.alerts obs in
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
  meta : Obs_json.t;
  observations : Serve_obs.t list;
  recorded : Obs_json.t list;
  recomputed : Obs_json.t list;
  mismatches : string list;
  read_errors : string list;
  status : Obs_json.t;
}

let replay dir =
  let log = History.read dir in
  match log.meta with
  | None -> Error (Printf.sprintf "%s: no meta record in history" dir)
  | Some meta ->
    Result.map
      (fun m ->
        let r = rebuild m log.observations in
        { meta; observations = log.observations; recorded = log.alerts;
          recomputed = r.events;
          mismatches = alert_mismatches log.alerts r.events;
          read_errors = log.errors;
          status =
            `Assoc
              (status_core ~total:r.total ~last:r.last ~wins:r.wins
                 ~alerts:r.alerts ~window_sizes:m.windows) })
      (Result.map_error (Printf.sprintf "%s: %s" dir) (meta_of_json meta))
