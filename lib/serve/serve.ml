let status_schema = "csod.serve.status/2"
let checkpoint_schema = "csod.serve.checkpoint/2"
let status_period = 0.1

type config = {
  meta : History.meta;
  domains : int;
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
  { meta = { workload; epoch_size; faults; patch_threshold; rules; windows };
    domains; history_dir; rotate; status_path; checkpoint_path; checkpoint_every }

(* The service's view of its health stream: the run's total (the fold of
   every record), the rolling windows over it, the alert rules and the
   latest record.  The live loop and [rebuild] both advance it through
   [feed]. *)
type view = {
  mutable total : Health.agg;
  wins : Window.set;
  alerts : Alert.t;
  mutable last : Health.t option;
}

let feed v (r : Health.t) =
  let a = Health.span v.total r in
  v.total <- Health.merge v.total a;
  v.last <- Some r;
  Window.push_set v.wins a;
  Alert.observe v.alerts v.wins ~epoch:r.epoch

(* The view after a health stream, from fresh rings (dashboard sizes plus
   every rule's judging window) and rules, and the alert transitions the
   stream derives: what a resume continues from and what [replay] checks
   the recorded alerts against. *)
let rebuild (m : History.meta) records =
  let v =
    { total = Health.empty;
      wins =
        Window.set (m.windows @ List.map (fun (r : Alert.rule) -> r.window) m.rules);
      alerts = Alert.engine m.rules;
      last = None }
  in
  (v, List.concat_map (feed v) records)

type 'a t = {
  cfg : config;
  fleet : 'a Fleet.t;
  view : view;
  hist : History.writer option;
  t_start : float;
  (* Wall time of the last refresh; [neg_infinity] until the first
     barrier, so that barrier always refreshes. *)
  mutable refreshed_at : float;
}

(* ---- status ---- *)

type wall = { domains : int; wall_seconds : float; unix_time : float }
type alerts = { rules : string list; firing : (string * int) list }

type status = {
  epoch : int;
  arrived : int;
  detections : int;
  patched : int;
  cdf : float;
  virtual_seconds : float;
  last : Health.t option;
  windows : (int * Health.agg) list;
  alerts : alerts;
  wall : wall option;
}

let status_table : status Schema.field list =
  Schema.Field.
    [ int "epoch" (fun s -> s.epoch) (fun s epoch -> { s with epoch });
      int "arrived" (fun s -> s.arrived) (fun s arrived -> { s with arrived });
      int "detections" (fun s -> s.detections) (fun s detections -> { s with detections });
      int "patched" (fun s -> s.patched) (fun s patched -> { s with patched });
      float "cdf" (fun s -> s.cdf) (fun s cdf -> { s with cdf });
      float "virtual_seconds" (fun s -> s.virtual_seconds)
        (fun s virtual_seconds -> { s with virtual_seconds });
      nullable "last" Object Health.to_json
        (fun j -> Result.to_option (Health.of_json j))
        (fun s -> s.last) (fun s last -> { s with last });
      (* Keyed by size, written in decimal. *)
      conv "windows" Object
        (fun l -> `Assoc (List.map (fun (w, a) -> (string_of_int w, Health.agg_to_json a)) l))
        (function
          | `Assoc l ->
            Obs_json.all
              (fun (k, a) ->
                match (int_of_string_opt k, Health.agg_of_json a) with
                | Some w, Some a when w >= 1 && string_of_int w = k -> Some (w, a)
                | _ -> None)
              l
          | _ -> None)
        (fun s -> s.windows) (fun s windows -> { s with windows });
      record "alerts"
        [ list "rules" (fun r -> `String r)
            (function `String r -> Some r | _ -> None)
            (fun a -> a.rules) (fun a rules -> { a with rules });
          records "firing"
            [ string "spec" fst (fun (_, since) spec -> (spec, since));
              int "since" snd (fun (spec, _) since -> (spec, since)) ]
            ("", 0) (fun a -> a.firing) (fun a firing -> { a with firing }) ]
        { rules = []; firing = [] }
        (fun s -> s.alerts) (fun s alerts -> { s with alerts });
      option "wall"
        [ int "domains" (fun w -> w.domains) (fun w domains -> { w with domains });
          float "wall_seconds" (fun w -> w.wall_seconds)
            (fun w wall_seconds -> { w with wall_seconds });
          float "unix_time" (fun w -> w.unix_time) (fun w unix_time -> { w with unix_time }) ]
        { domains = 0; wall_seconds = 0.; unix_time = 0. }
        (fun s -> s.wall) (fun s wall -> { s with wall }) ]

let status_spec =
  Schema.of_table status_schema status_table
    { epoch = 0; arrived = 0; detections = 0; patched = 0; cdf = 0.; virtual_seconds = 0.;
      last = None; windows = []; alerts = { rules = []; firing = [] }; wall = None }
    ~check:(fun () s ->
      if s.cdf < 0. || s.cdf > 1. then Error "cdf out of [0, 1]"
      else if s.detections > s.arrived then Error "more detections than arrivals"
      else Ok ())

let status_of v ~window_sizes ~wall =
  let total = v.total and spec (r, since) = (Alert.to_spec r, since) in
  { epoch = total.last_epoch + 1; arrived = total.arrivals;
    detections = total.detections; patched = total.patched; cdf = total.cdf_last;
    virtual_seconds = total.virtual_last; last = v.last;
    windows =
      List.filter_map (fun w -> Option.map (fun a -> (w, a)) (Window.get v.wins w)) window_sizes;
    alerts =
      { rules = List.map Alert.to_spec (Alert.rules v.alerts);
        firing = List.map spec (Alert.firing v.alerts) };
    wall }

(* [now]: one clock reading gives both wall members. *)
let status_at t ~now =
  status_of t.view ~window_sizes:t.cfg.meta.windows
    ~wall:(Some { domains = t.cfg.domains; wall_seconds = now -. t.t_start; unix_time = now })

let status t = status_at t ~now:(Unix.gettimeofday ())
let status_to_json s = Schema.to_json ~tag:status_schema status_table s
let status_json t = status_to_json (status t)

let publish_status t ~now =
  Option.iter
    (fun path ->
      Atomic_file.write path (Obs_json.to_string (status_to_json (status_at t ~now)) ^ "\n"))
    t.cfg.status_path

(* ---- history, read back ---- *)

(* Alert bodies compared in stream order, one line per difference. *)
let alert_mismatches recorded recomputed =
  let strings l =
    Array.of_list (List.map (fun e -> Obs_json.to_string (Alert.event_to_json e)) l)
  in
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
type position = { seq : int; segment : int; lines : int }
type checkpoint = { epoch : int; store : (int * int * int) list; history : position }

let checkpoint_table : checkpoint Schema.field list =
  Schema.Field.
    [ int "epoch" (fun c -> c.epoch) (fun c epoch -> { c with epoch });
      list "store"
        (fun (a, b, h) -> `List [ `Int a; `Int b; `Int h ])
        (function `List [ `Int a; `Int b; `Int h ] when h >= 1 -> Some (a, b, h) | _ -> None)
        (fun c -> c.store) (fun c store -> { c with store });
      record "history"
        [ int ~min:1 "seq" (fun p -> p.seq) (fun p seq -> { p with seq });
          int "segment" (fun p -> p.segment) (fun p segment -> { p with segment });
          int "lines" (fun p -> p.lines) (fun p lines -> { p with lines }) ]
        { seq = 1; segment = 0; lines = 0 }
        (fun c -> c.history) (fun c history -> { c with history }) ]

(* The one decoder [resume] and [validate] read a checkpoint with.  A key
   listed twice would have its hits added twice on resume: evidence no
   execution gave. *)
let checkpoint_spec =
  Schema.of_table checkpoint_schema checkpoint_table
    { epoch = 0; store = []; history = { seq = 1; segment = 0; lines = 0 } }
    ~check:(fun () c ->
      let keys = List.map (fun (a, b, _) -> (a, b)) c.store in
      if List.length (List.sort_uniq compare keys) < List.length keys then
        Error "a store key is listed twice"
      else Ok ())

let checkpoint_to_json c = Schema.to_json ~tag:checkpoint_schema checkpoint_table c

let publish_checkpoint t =
  match (t.cfg.checkpoint_path, t.hist) with
  | Some path, Some w ->
    let store = Fleet.store t.fleet in
    let c =
      { epoch = Fleet.epoch t.fleet;
        store = List.map (fun (a, b) -> (a, b, Persist.hits store (a, b))) (Persist.keys store);
        history =
          { seq = History.seq w; segment = History.segment w;
            lines = History.lines_in_segment w } }
    in
    Atomic_file.write path (Obs_json.to_string (checkpoint_to_json c) ^ "\n")
  | _ -> ()

(* ---- start / resume ---- *)

(* A service continuing [v]'s run, its fleet session starting at the next
   epoch and uid. *)
let make cfg ~execute ?store v hist =
  let m = cfg.meta in
  { cfg;
    fleet =
      Fleet.start ?store ~uid0:(v.total.arrivals + 1)
        ~epoch0:(v.total.last_epoch + 1)
        (Fleet.config ~domains:cfg.domains ~epoch_size:m.epoch_size ?faults:m.faults
           ?patch_threshold:m.patch_threshold m.workload)
        ~execute;
    view = v; hist;
    t_start = Unix.gettimeofday ();
    refreshed_at = neg_infinity }

let fresh cfg ~execute =
  let hist =
    Option.map (fun dir -> History.writer ~rotate:cfg.rotate dir)
      cfg.history_dir
  in
  (* The meta record leads the history; a resumed session continues
     after it, so its segments stay byte-identical to an uninterrupted
     run's. *)
  Option.iter
    (fun w -> ignore (History.append w History.Meta (History.meta_to_json cfg.meta)))
    hist;
  make cfg ~execute (fst (rebuild cfg.meta [])) hist

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
let resume cfg ~execute ~dir c =
  let { seq; segment; lines } = c.history in
  History.truncate dir ~segment ~lines;
  let log = History.read dir and configured = History.meta_to_json cfg.meta in
  let v, events = rebuild cfg.meta log.health in
  let refused fmt = Printf.ksprintf (fun m -> Error ("history " ^ dir ^ m)) fmt in
  let differs = Option.map (fun m -> differing (History.meta_to_json m) configured) log.meta in
  match (log.errors, differs, alert_mismatches log.alerts events) with
  | e :: _, _, _ -> refused ": %s" e
  | [], None, _ -> refused ": no meta record"
  | [], Some (_ :: _ as fields), _ ->
    refused " was written by another configuration (%s)" (String.concat ", " fields)
  | _ when List.length log.health <> c.epoch ->
    refused " holds %d epochs, the checkpoint %d" (List.length log.health) c.epoch
  | _, _, m :: _ -> refused ": %s" m
  | _ ->
    let store = Persist.create () in
    List.iter
      (fun (a, b, h) -> for _ = 1 to h do Persist.add store (a, b) done)
      c.store;
    Ok
      (make cfg ~execute ~store v
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
           Result.bind (Schema.decode checkpoint_spec json) (resume cfg ~execute ~dir)))
  | _, Some dir when History.segments dir <> [] ->
    Error
      (Printf.sprintf
         "history %s already holds a run and no checkpoint resumes it: a \
          fresh run would append a second one"
         dir)
  | _ -> Ok (fresh cfg ~execute)

(* ---- the epoch ---- *)

type outcome = {
  record : Health.t;
  events : Alert.event list;
  refreshed : bool;
}

let step t =
  let e = Fleet.epoch t.fleet in
  let n =
    min
      (t.cfg.meta.workload.users - t.view.total.arrivals)
      (Workload.rate t.cfg.meta.workload ~epoch_size:t.cfg.meta.epoch_size e)
    |> max 0
  in
  let record = (Fleet.step t.fleet ~arrivals:n).record in
  let events = feed t.view record in
  (match t.hist with
  | Some w ->
    ignore (History.append w History.Health (Health.to_json record));
    List.iter
      (fun ev -> ignore (History.append w History.Alert (Alert.event_to_json ev)))
      events
  | None -> ());
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
  { record; events; refreshed }

let finish t =
  publish_status t ~now:(Unix.gettimeofday ());
  publish_checkpoint t;
  (match t.hist with Some w -> History.close w | None -> ());
  Fleet.finish t.fleet

let epoch t = Fleet.epoch t.fleet
let arrived t = t.view.total.arrivals

(* ---- rendering ---- *)

let render_status ?(color = true) (s : status) =
  let c code text = if color then Printf.sprintf "\x1b[%sm%s\x1b[0m" code text else text in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%s  epoch %d  virtual %.1f s\n" (c "1" "csod serve") s.epoch
       s.virtual_seconds);
  Buffer.add_string b
    (Printf.sprintf "arrived %d  detections %d  cdf %.2f%%  store %s%s\n" s.arrived
       s.detections (100.0 *. s.cdf)
       (match s.last with Some r -> string_of_int r.store_contexts | None -> "-")
       (if s.patched > 0 then Printf.sprintf "  patched %d" s.patched else ""));
  if s.windows <> [] then begin
    Buffer.add_string b
      (c "2" "window   epochs  arrivals  detect  degraded  crashes   skew     cdf\n");
    List.iter
      (fun (w, (a : Health.agg)) ->
        Buffer.add_string b
          (Printf.sprintf "%6d  %7d  %8d  %6d  %8d  %7d  %5.2f  %5.2f%%\n" w a.epochs
             a.arrivals a.detections a.degraded a.worker_crashes a.skew_max
             (100.0 *. a.cdf_last)))
      s.windows
  end;
  Buffer.add_string b "alerts: ";
  if s.alerts.rules = [] then Buffer.add_string b "(none)"
  else
    Buffer.add_string b
      (String.concat "  "
         (List.map
            (fun spec ->
              match List.assoc_opt spec s.alerts.firing with
              | Some since -> c "31;1" (Printf.sprintf "%s FIRING since %d" spec since)
              | None -> Printf.sprintf "%s %s" spec (c "32" "ok"))
            s.alerts.rules));
  Buffer.add_char b '\n';
  Buffer.contents b

(* ---- offline replay ---- *)

type replay = {
  meta : History.meta;
  health : Health.t list;
  recorded : Alert.event list;
  recomputed : Alert.event list;
  mismatches : string list;
  read_errors : string list;
  status : status;
}

let replay dir =
  let log = History.read dir in
  match log.meta with
  | None ->
    (* Say why: a history in another format, or whose meta record does not
       decode, holds no meta record of this one. *)
    Error
      (Printf.sprintf "%s: no meta record in history%s" dir
         (match log.errors with e :: _ -> " (" ^ e ^ ")" | [] -> ""))
  | Some meta ->
    let v, events = rebuild meta log.health in
    Ok
      { meta; health = log.health; recorded = log.alerts; recomputed = events;
        mismatches = alert_mismatches log.alerts events; read_errors = log.errors;
        status = status_of v ~window_sizes:meta.windows ~wall:None }
