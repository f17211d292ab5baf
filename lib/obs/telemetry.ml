type t = {
  metrics : Metrics.t;
  profiler : Profiler.t;
  mutable snapshot_every : int; (* cycles; 0 disables periodic snapshots *)
  mutable next_snapshot : int;
  mutable snapshots : int;
}

let create () =
  { metrics = Metrics.create ();
    profiler = Profiler.create ();
    snapshot_every = 0;
    next_snapshot = max_int;
    snapshots = 0 }

let metrics t = t.metrics
let profiler t = t.profiler

let set_snapshot_interval t ~cycles =
  if cycles < 0 then invalid_arg "Telemetry.set_snapshot_interval: negative interval";
  t.snapshot_every <- cycles;
  t.next_snapshot <- (if cycles = 0 then max_int else cycles)

let snapshot_count t = t.snapshots

let emit_snapshot t ~now =
  t.snapshots <- t.snapshots + 1;
  Event_sink.emit "snapshot"
    [ ("seq", `Int t.snapshots); ("cycles", `Int now);
      ("metrics", Metrics.to_json t.metrics);
      ("profile", Profiler.to_json t.profiler) ]

(* Emit one snapshot per elapsed interval boundary; a single long [work]
   charge crossing several boundaries yields several, keeping snapshot
   sequence numbers in lockstep with virtual time. *)
let[@inline never] emit_due_snapshots t ~now =
  while now >= t.next_snapshot do
    if Event_sink.active () then emit_snapshot t ~now:t.next_snapshot;
    t.next_snapshot <- t.next_snapshot + t.snapshot_every
  done

(* Runs after every clock advance: only the boundary test is inlined into
   the machine's charge path. *)
let[@inline] tick t ~now =
  if now >= t.next_snapshot then emit_due_snapshots t ~now

let merge_into ~dst ~src =
  Metrics.merge_into ~dst:dst.metrics ~src:src.metrics;
  Profiler.merge_into ~dst:dst.profiler ~src:src.profiler;
  dst.snapshots <- dst.snapshots + src.snapshots

(* ---- export ---- *)

let to_json t ~total_cycles : Obs_json.t =
  `Assoc
    [ ("total_cycles", `Int total_cycles);
      ("snapshots", `Int t.snapshots);
      ("metrics", Metrics.to_json t.metrics);
      ("profile", Profiler.to_json t.profiler) ]

let json_string t ~total_cycles = Obs_json.to_string (to_json t ~total_cycles)

let profile_table t ~total_cycles =
  let tbl =
    Table_fmt.create ~title:"CYCLE ATTRIBUTION"
      ~columns:
        [ ("Phase", Table_fmt.Left); ("Cycles", Table_fmt.Right);
          ("Share", Table_fmt.Right) ]
  in
  let charged = Profiler.total t.profiler in
  List.iter
    (fun (p, c) ->
      Table_fmt.add_row tbl
        [ Profiler.name p; Table_fmt.fmt_int c;
          Table_fmt.fmt_percent (Stats.ratio c (max 1 charged)) ])
    (Profiler.nonzero t.profiler);
  Table_fmt.add_separator tbl;
  Table_fmt.add_row tbl
    [ "total charged"; Table_fmt.fmt_int charged;
      Table_fmt.fmt_percent (Stats.ratio charged (max 1 total_cycles)) ];
  Table_fmt.add_row tbl [ "clock total"; Table_fmt.fmt_int total_cycles; "100.0%" ];
  Table_fmt.render tbl

let metrics_table t =
  let tbl =
    Table_fmt.create ~title:"METRICS"
      ~columns:[ ("Name", Table_fmt.Left); ("Value", Table_fmt.Right);
                 ("High", Table_fmt.Right) ]
  in
  List.iter
    (fun (name, v) -> Table_fmt.add_row tbl [ name; Table_fmt.fmt_int v; "" ])
    (Metrics.counters_list t.metrics);
  (match Metrics.gauges_list t.metrics with
  | [] -> ()
  | gauges ->
    Table_fmt.add_separator tbl;
    List.iter
      (fun (name, v, high) ->
        Table_fmt.add_row tbl
          [ name; Table_fmt.fmt_int v; Table_fmt.fmt_int high ])
      gauges);
  List.iter
    (fun h ->
      Table_fmt.add_separator tbl;
      let bounds = Metrics.bucket_bounds h in
      Array.iteri
        (fun i n ->
          let label =
            if i < Array.length bounds then
              Printf.sprintf "  <= %s" (Table_fmt.fmt_int bounds.(i))
            else "  > max"
          in
          if n > 0 then Table_fmt.add_row tbl [ label; Table_fmt.fmt_int n; "" ])
        (Metrics.bucket_counts h))
    (Metrics.histograms_list t.metrics);
  Table_fmt.render tbl

let summary t ~total_cycles =
  metrics_table t ^ "\n" ^ profile_table t ~total_cycles
