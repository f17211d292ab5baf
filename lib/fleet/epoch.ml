let table ~users records =
  let t =
    Table_fmt.create ~title:"DETECTION CDF"
      ~columns:
        [ ("Epoch", Table_fmt.Right); ("Arrivals", Table_fmt.Right);
          ("Detections", Table_fmt.Right); ("Cumulative", Table_fmt.Right);
          ("CDF", Table_fmt.Right); ("Store", Table_fmt.Right) ]
  in
  List.iter2
    (fun (r : Health.t) (total : Health.agg) ->
      Table_fmt.add_row t
        [ string_of_int r.epoch; string_of_int r.arrivals;
          string_of_int r.detections; string_of_int total.detections;
          Table_fmt.fmt_percent
            (if users > 0 then
               float_of_int total.detections /. float_of_int users
             else 0.0);
          string_of_int r.store_contexts ])
    records (Health.totals records);
  Table_fmt.render t

let to_json records =
  List.map2
    (fun (r : Health.t) (total : Health.agg) : Obs_json.t ->
      `Assoc
        [ ("epoch", `Int r.epoch); ("arrivals", `Int r.arrivals);
          ("detections", `Int r.detections);
          ("cumulative", `Int total.detections);
          ("store_size", `Int r.store_contexts) ])
    records (Health.totals records)
