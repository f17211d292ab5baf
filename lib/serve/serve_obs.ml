type t = {
  epoch : int;
  arrivals : int;
  arrived : int;
  detections : int;
  cumulative : int;
  cdf : float;
  store_contexts : int;
  patched : int;
  degraded : int;
  worker_crashes : int;
  faults : (string * int) list;
  snapshots : int;
  cycles : int;
  virtual_seconds : float;
  cycle_skew : float;
}

let to_json o : Obs_json.t =
  `Assoc
    [ ("epoch", `Int o.epoch); ("arrivals", `Int o.arrivals);
      ("arrived", `Int o.arrived); ("detections", `Int o.detections);
      ("cumulative", `Int o.cumulative); ("cdf", `Float o.cdf);
      ("store_contexts", `Int o.store_contexts);
      ("patched", `Int o.patched);
      ("degraded", `Int o.degraded);
      ("worker_crashes", `Int o.worker_crashes);
      ("faults", `Assoc (List.map (fun (k, v) -> (k, `Int v)) o.faults));
      ("snapshots", `Int o.snapshots); ("cycles", `Int o.cycles);
      ("virtual_seconds", `Float o.virtual_seconds);
      ("cycle_skew", `Float o.cycle_skew) ]

let fields =
  Schema.
    [ ("epoch", Int); ("arrivals", Int); ("arrived", Int);
      ("detections", Int); ("cumulative", Int); ("cdf", Float);
      ("store_contexts", Int); ("degraded", Int); ("worker_crashes", Int);
      ("faults", Object); ("snapshots", Int); ("cycles", Int);
      ("virtual_seconds", Float); ("cycle_skew", Float) ]

let of_json json =
  let int = Schema.int json and flt = Schema.float json in
  match
    ( Schema.has_fields fields json,
      Option.bind (Obs_json.member "faults" json) Obs_json.counts )
  with
  | Ok (), Some faults when flt "cdf" >= 0. && flt "cdf" <= 1. ->
    Some
      { epoch = int "epoch"; arrivals = int "arrivals";
        arrived = int "arrived"; detections = int "detections";
        cumulative = int "cumulative"; cdf = flt "cdf";
        store_contexts = int "store_contexts";
        (* Absent in pre-respond histories: read as 0 so old segments
           replay. *)
        patched =
          (match Obs_json.member "patched" json with
           | Some (`Int n) -> n
           | _ -> 0);
        degraded = int "degraded"; worker_crashes = int "worker_crashes";
        faults; snapshots = int "snapshots"; cycles = int "cycles";
        virtual_seconds = flt "virtual_seconds";
        cycle_skew = flt "cycle_skew" }
  | _ -> None
