type agg = {
  epochs : int;
  first_epoch : int;
  last_epoch : int;
  arrivals : int;
  detections : int;
  patched : int;
  degraded : int;
  worker_crashes : int;
  faults : (string * int) list;
  snapshots : int;
  cycles : int;
  skew_max : float;
  cdf_last : float;
  store_last : int;
  virtual_last : float;
}

let empty =
  { epochs = 0; first_epoch = -1; last_epoch = -1; arrivals = 0;
    detections = 0; patched = 0; degraded = 0; worker_crashes = 0; faults = [];
    snapshots = 0; cycles = 0; skew_max = 0.; cdf_last = 0.; store_last = 0;
    virtual_last = 0. }

let of_obs (o : Serve_obs.t) =
  { epochs = 1; first_epoch = o.epoch; last_epoch = o.epoch;
    arrivals = o.arrivals; detections = o.detections; patched = o.patched;
    degraded = o.degraded;
    worker_crashes = o.worker_crashes;
    faults = List.sort (fun (a, _) (b, _) -> compare a b) o.faults;
    snapshots = o.snapshots; cycles = o.cycles; skew_max = o.cycle_skew;
    cdf_last = o.cdf; store_last = o.store_contexts;
    virtual_last = o.virtual_seconds }

(* Sum two name-sorted counter lists, keeping the result sorted — the
   same merge a from-scratch fold would produce, so grouping doesn't
   matter. *)
let rec merge_faults a b =
  match (a, b) with
  | [], l | l, [] -> l
  | (ka, va) :: ta, (kb, vb) :: tb ->
    let c = compare ka kb in
    if c = 0 then (ka, va + vb) :: merge_faults ta tb
    else if c < 0 then (ka, va) :: merge_faults ta b
    else (kb, vb) :: merge_faults a tb

let merge a b =
  if a.epochs = 0 then b
  else if b.epochs = 0 then a
  else
    { epochs = a.epochs + b.epochs; first_epoch = a.first_epoch;
      last_epoch = b.last_epoch; arrivals = a.arrivals + b.arrivals;
      detections = a.detections + b.detections;
      patched = a.patched + b.patched;
      degraded = a.degraded + b.degraded;
      worker_crashes = a.worker_crashes + b.worker_crashes;
      faults = merge_faults a.faults b.faults;
      snapshots = a.snapshots + b.snapshots; cycles = a.cycles + b.cycles;
      skew_max = Float.max a.skew_max b.skew_max; cdf_last = b.cdf_last;
      store_last = b.store_last; virtual_last = b.virtual_last }

let agg_to_json a : Obs_json.t =
  `Assoc
    [ ("epochs", `Int a.epochs); ("first_epoch", `Int a.first_epoch);
      ("last_epoch", `Int a.last_epoch); ("arrivals", `Int a.arrivals);
      ("detections", `Int a.detections); ("patched", `Int a.patched);
      ("degraded", `Int a.degraded);
      ("worker_crashes", `Int a.worker_crashes);
      ("faults", `Assoc (List.map (fun (k, v) -> (k, `Int v)) a.faults));
      ("snapshots", `Int a.snapshots); ("cycles", `Int a.cycles);
      ("skew_max", `Float a.skew_max); ("cdf_last", `Float a.cdf_last);
      ("store_last", `Int a.store_last);
      ("virtual_last", `Float a.virtual_last) ]

let agg_fields =
  Schema.
    [ ("epochs", Int); ("first_epoch", Int); ("last_epoch", Int);
      ("arrivals", Int); ("detections", Int); ("degraded", Int);
      ("worker_crashes", Int); ("faults", Object); ("snapshots", Int);
      ("cycles", Int); ("skew_max", Float); ("cdf_last", Float);
      ("store_last", Int); ("virtual_last", Float) ]

let agg_of_json json =
  let int = Schema.int json and flt = Schema.float json in
  match
    ( Schema.has_fields agg_fields json,
      Option.bind (Obs_json.member "faults" json) Obs_json.counts )
  with
  | Ok (), Some faults ->
    Some
      { epochs = int "epochs"; first_epoch = int "first_epoch";
        last_epoch = int "last_epoch"; arrivals = int "arrivals";
        detections = int "detections";
        (* Absent in pre-respond alert windows: read as 0 so old
           histories replay. *)
        patched =
          (match Obs_json.member "patched" json with
           | Some (`Int n) -> n
           | _ -> 0);
        degraded = int "degraded"; worker_crashes = int "worker_crashes";
        faults; snapshots = int "snapshots"; cycles = int "cycles";
        skew_max = flt "skew_max"; cdf_last = flt "cdf_last";
        store_last = int "store_last"; virtual_last = flt "virtual_last" }
  | _ -> None

type t = {
  win : int;
  ring : agg array;  (* slot = epoch index mod win *)
  mutable count : int;  (* lifetime pushes *)
}

let create ~size =
  if size < 1 then invalid_arg "Window.create: size must be >= 1";
  { win = size; ring = Array.make size empty; count = 0 }

let push t o =
  t.ring.(t.count mod t.win) <- of_obs o;
  t.count <- t.count + 1

(* The ring's occupied slots in epoch order: oldest first. *)
let ordered t =
  let n = min t.count t.win in
  let start = if t.count <= t.win then 0 else t.count mod t.win in
  Array.init n (fun i -> t.ring.((start + i) mod t.win))

let aggregate t = Array.fold_left merge empty (ordered t)

type set = { windows : (int * t) list (* size-sorted *) }

let set sizes =
  let sizes = List.sort_uniq compare sizes in
  { windows = List.map (fun w -> (w, create ~size:w)) sizes }

let rows s =
  match s.windows with [] -> 0 | (_, t) :: _ -> t.count

let push_set s o = List.iter (fun (_, t) -> push t o) s.windows

let get s w =
  Option.map aggregate (List.assoc_opt w s.windows)
