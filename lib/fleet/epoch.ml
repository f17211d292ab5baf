type row = {
  epoch : int;
  arrivals : int;
  detections : int;
  cumulative : int;
  store_size : int;
}

let of_sample (s : Health.sample) =
  { epoch = s.epoch; arrivals = s.arrivals; detections = s.detections;
    cumulative = s.cumulative; store_size = s.store_contexts }

let cdf ~total_users r =
  if total_users = 0 then 0.0
  else float_of_int r.cumulative /. float_of_int total_users

let table ~total_users rows =
  let t =
    Table_fmt.create ~title:"DETECTION CDF"
      ~columns:
        [ ("Epoch", Table_fmt.Right); ("Arrivals", Table_fmt.Right);
          ("Detections", Table_fmt.Right); ("Cumulative", Table_fmt.Right);
          ("CDF", Table_fmt.Right); ("Store", Table_fmt.Right) ]
  in
  List.iter
    (fun r ->
      Table_fmt.add_row t
        [ string_of_int r.epoch; string_of_int r.arrivals;
          string_of_int r.detections; string_of_int r.cumulative;
          Table_fmt.fmt_percent (cdf ~total_users r);
          string_of_int r.store_size ])
    rows;
  Table_fmt.render t

let to_json r : Obs_json.t =
  `Assoc
    [ ("epoch", `Int r.epoch); ("arrivals", `Int r.arrivals);
      ("detections", `Int r.detections); ("cumulative", `Int r.cumulative);
      ("store_size", `Int r.store_size) ]
