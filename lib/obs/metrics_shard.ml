type t = {
  metrics : Metrics.t;
  profile : Profiler.t;
  (* By gauge key id: the uid and level of the highest-uid absorbed
     execution that defines the gauge ([min_int] when none has).
     Executions that never create a gauge leave no entry, matching
     [Metrics.merge_into] (which only overwrites a level when the source
     registry defines the gauge). *)
  mutable win_key : Metrics.gauge Metrics.key array;
  mutable win_uid : int array;
  mutable win_level : int array;
  mutable absorbed : int;
  mutable snapshots : int;
}

let create () =
  { metrics = Metrics.create ();
    profile = Profiler.create ();
    win_key = [||];
    win_uid = [||];
    win_level = [||];
    absorbed = 0;
    snapshots = 0 }

let note_gauge t key ~uid ~level =
  let id = Metrics.key_id key in
  let n = Array.length t.win_uid in
  if id >= n then begin
    let m = max (id + 1) (2 * n) in
    let grow a fill = Array.init m (fun i -> if i < n then a.(i) else fill) in
    t.win_key <- grow t.win_key key;
    t.win_uid <- grow t.win_uid min_int;
    t.win_level <- grow t.win_level 0
  end;
  if t.win_uid.(id) <= uid then begin
    t.win_key.(id) <- key;
    t.win_uid.(id) <- uid;
    t.win_level.(id) <- level
  end

let absorb t ~uid tele =
  let reg = Telemetry.metrics tele in
  Metrics.iter_gauges
    (fun g -> note_gauge t (Metrics.gauge_of g) ~uid ~level:(Metrics.level g))
    reg;
  Metrics.merge_into ~dst:t.metrics ~src:reg;
  Profiler.merge_into ~dst:t.profile ~src:(Telemetry.profiler tele);
  t.absorbed <- t.absorbed + 1;
  t.snapshots <- t.snapshots + Telemetry.snapshot_count tele

let absorbed t = t.absorbed
let snapshots t = t.snapshots

let merge_into ~dst ~src =
  Metrics.merge_into ~dst:dst.metrics ~src:src.metrics;
  Profiler.merge_into ~dst:dst.profile ~src:src.profile;
  Array.iteri
    (fun id uid ->
      if uid <> min_int then
        note_gauge dst src.win_key.(id) ~uid ~level:src.win_level.(id))
    src.win_uid;
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
       already folded in.  Gauges are independent, so key-id order is as
       good as any. *)
    Array.iteri
      (fun id uid ->
        if uid <> min_int then
          Metrics.set (Metrics.gauge metrics root.win_key.(id)) root.win_level.(id))
      root.win_uid;
    root.absorbed
  end
