let table samples =
  let t =
    Table_fmt.create ~title:"DETECTION CDF"
      ~columns:
        [ ("Epoch", Table_fmt.Right); ("Arrivals", Table_fmt.Right);
          ("Detections", Table_fmt.Right); ("Cumulative", Table_fmt.Right);
          ("CDF", Table_fmt.Right); ("Store", Table_fmt.Right) ]
  in
  List.iter
    (fun (s : Health.sample) ->
      Table_fmt.add_row t
        [ string_of_int s.epoch; string_of_int s.arrivals;
          string_of_int s.detections; string_of_int s.cumulative;
          Table_fmt.fmt_percent s.cdf; string_of_int s.store_contexts ])
    samples;
  Table_fmt.render t

let to_json (s : Health.sample) : Obs_json.t =
  `Assoc
    [ ("epoch", `Int s.epoch); ("arrivals", `Int s.arrivals);
      ("detections", `Int s.detections); ("cumulative", `Int s.cumulative);
      ("store_size", `Int s.store_contexts) ]
