type t = {
  metrics : Metrics.t;
  profile : Profiler.t;
  (* gauge name -> (uid, level) of the highest-uid absorbed execution that
     defines the gauge.  Executions that never create a gauge leave no
     entry, matching [Metrics.merge_into] (which only overwrites a level when
     the source registry defines the gauge). *)
  gauge_src : (string, int * int) Hashtbl.t;
  mutable absorbed : int;
  mutable snapshots : int;
}

let create () =
  { metrics = Metrics.create ();
    profile = Profiler.create ();
    gauge_src = Hashtbl.create 8;
    absorbed = 0;
    snapshots = 0 }

let note_gauge t name ~uid ~level =
  match Hashtbl.find_opt t.gauge_src name with
  | Some (u, _) when u > uid -> ()
  | _ -> Hashtbl.replace t.gauge_src name (uid, level)

let absorb t ~uid tele =
  let reg = Telemetry.metrics tele in
  List.iter
    (fun (name, level, _high) -> note_gauge t name ~uid ~level)
    (Metrics.gauges_list reg);
  Metrics.merge_into ~dst:t.metrics ~src:reg;
  Profiler.merge_into ~dst:t.profile ~src:(Telemetry.profiler tele);
  t.absorbed <- t.absorbed + 1;
  t.snapshots <- t.snapshots + Telemetry.snapshot_count tele

let absorbed t = t.absorbed
let snapshots t = t.snapshots

let merge_into ~dst ~src =
  Metrics.merge_into ~dst:dst.metrics ~src:src.metrics;
  Profiler.merge_into ~dst:dst.profile ~src:src.profile;
  Hashtbl.iter
    (fun name (uid, level) -> note_gauge dst name ~uid ~level)
    src.gauge_src;
  dst.absorbed <- dst.absorbed + src.absorbed;
  dst.snapshots <- dst.snapshots + src.snapshots

let reduce_into shards ~metrics ~profile =
  let n = Array.length shards in
  if n = 0 then 0
  else begin
    (* Pairwise tree: (0<-1) (2<-3) ..., then (0<-2) ..., log2 n rounds.
       Every step is a commutative sum plus a max-uid gauge resolution, so
       the reduction order cannot change the committed result. *)
    let stride = ref 1 in
    while !stride < n do
      let i = ref 0 in
      while !i + !stride < n do
        merge_into ~dst:shards.(!i) ~src:shards.(!i + !stride);
        i := !i + (2 * !stride)
      done;
      stride := !stride * 2
    done;
    let root = shards.(0) in
    Metrics.merge_into ~dst:metrics ~src:root.metrics;
    Profiler.merge_into ~dst:profile ~src:root.profile;
    (* Gauge fixup: the sum-merge above wrote each gauge's level from
       whatever execution the root shard happened to absorb last; restore
       the deterministic highest-uid winner.  [Metrics.set] cannot disturb
       the high watermark — the winner's level is bounded by its own high,
       already folded in.  Per-gauge entries are independent, but iterate
       in sorted name order anyway so the fixup itself is reproducible. *)
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) root.gauge_src []
    |> List.sort compare
    |> List.iter (fun (name, (_uid, level)) ->
           Metrics.set (Metrics.gauge metrics name) level);
    root.absorbed
  end
