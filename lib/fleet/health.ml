type domain_load = { slot : int; executed : int; busy_seconds : float }

type wall = {
  epoch_seconds : float;
  merge_seconds : float;
  observer_seconds : float;
  straggler_skew : float;
  domains : domain_load list;
}

type t = {
  epoch : int;
  arrivals : int;
  detections : int;
  degraded : int;
  worker_crashes : int;
  faults : (string * int) list;
  snapshots : int;
  cycles : int;
  cycle_skew : float;
  store_contexts : int;
  patched : int;
  wall : wall option;
}

let schema = "csod.fleet.health/3"

let straggler_skew busy =
  let busy = List.filter (fun b -> b > 0.0) busy in
  match List.sort compare busy with
  | [] | [ _ ] -> 1.0
  | sorted ->
    let n = List.length sorted in
    let median = List.nth sorted (n / 2) in
    let slowest = List.nth sorted (n - 1) in
    if median <= 1e-9 then 1.0 else slowest /. median

(* ---- the record's field table ---- *)

let load_table =
  Schema.Field.
    [ int "domain" (fun d -> d.slot) (fun d slot -> { d with slot });
      int "executed" (fun d -> d.executed) (fun d executed -> { d with executed });
      float "busy_seconds" (fun d -> d.busy_seconds) (fun d x -> { d with busy_seconds = x }) ]

let wall_table =
  Schema.Field.
    [ float "epoch_seconds" (fun w -> w.epoch_seconds) (fun w x -> { w with epoch_seconds = x });
      float "merge_seconds" (fun w -> w.merge_seconds) (fun w x -> { w with merge_seconds = x });
      float "observer_seconds" (fun w -> w.observer_seconds)
        (fun w x -> { w with observer_seconds = x });
      float "straggler_skew" (fun w -> w.straggler_skew)
        (fun w x -> { w with straggler_skew = x });
      records "domains" load_table { slot = 0; executed = 0; busy_seconds = 0. }
        (fun w -> w.domains) (fun w domains -> { w with domains }) ]

(* Every int of the record is a count or an index: never below zero. *)
let table : t Schema.field list =
  Schema.Field.
    [ int "epoch" (fun r -> r.epoch) (fun r epoch -> { r with epoch });
      int "arrivals" (fun r -> r.arrivals) (fun r arrivals -> { r with arrivals });
      int "detections" (fun r -> r.detections) (fun r detections -> { r with detections });
      int "degraded" (fun r -> r.degraded) (fun r degraded -> { r with degraded });
      int "worker_crashes" (fun r -> r.worker_crashes)
        (fun r n -> { r with worker_crashes = n });
      counts "faults" (fun r -> r.faults) (fun r faults -> { r with faults });
      int "snapshots" (fun r -> r.snapshots) (fun r snapshots -> { r with snapshots });
      int "cycles" (fun r -> r.cycles) (fun r cycles -> { r with cycles });
      float "cycle_skew" (fun r -> r.cycle_skew) (fun r x -> { r with cycle_skew = x });
      int "store_contexts" (fun r -> r.store_contexts)
        (fun r n -> { r with store_contexts = n });
      int "patched" (fun r -> r.patched) (fun r patched -> { r with patched });
      option "wall" wall_table
        { epoch_seconds = 0.; merge_seconds = 0.; observer_seconds = 0.;
          straggler_skew = 0.; domains = [] }
        (fun r -> r.wall) (fun r wall -> { r with wall }) ]

let zero =
  { epoch = 0; arrivals = 0; detections = 0; degraded = 0; worker_crashes = 0;
    faults = []; snapshots = 0; cycles = 0; cycle_skew = 0.; store_contexts = 0;
    patched = 0; wall = None }

(* More detections than arrivals would put the CDF the fold derives
   outside [0, 1]. *)
let check r =
  if r.detections > r.arrivals then Error "more detections than arrivals" else Ok ()

let spec = Schema.of_table ~check:(fun () -> check) schema table zero
let to_json r = Schema.to_json table r
let line r = Schema.to_json ~tag:schema table r

let of_json json =
  Result.bind (Schema.of_json table zero json) (fun r -> Result.map (fun () -> r) (check r))

(* ---- the fold ---- *)

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

let span (total : agg) (r : t) =
  let arrived = total.arrivals + r.arrivals
  and detected = total.detections + r.detections in
  { epochs = 1; first_epoch = r.epoch; last_epoch = r.epoch;
    arrivals = r.arrivals; detections = r.detections;
    patched = r.patched - total.patched; degraded = r.degraded;
    worker_crashes = r.worker_crashes;
    faults = List.sort (fun (a, _) (b, _) -> compare a b) r.faults;
    snapshots = r.snapshots; cycles = r.cycles; skew_max = r.cycle_skew;
    cdf_last =
      (if arrived > 0 then float_of_int detected /. float_of_int arrived else 0.0);
    store_last = r.store_contexts;
    virtual_last =
      float_of_int (total.cycles + r.cycles) /. float_of_int Cost.cycles_per_second }

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

let fold total r = merge total (span total r)

let totals records =
  snd
    (List.fold_left_map
       (fun total r ->
         let total = fold total r in
         (total, total))
       empty records)

let agg_table : agg Schema.field list =
  Schema.Field.
    [ int "epochs" (fun a -> a.epochs) (fun a epochs -> { a with epochs });
      int "first_epoch" (fun a -> a.first_epoch) (fun a x -> { a with first_epoch = x });
      int "last_epoch" (fun a -> a.last_epoch) (fun a last_epoch -> { a with last_epoch });
      int "arrivals" (fun a -> a.arrivals) (fun a arrivals -> { a with arrivals });
      int "detections" (fun a -> a.detections) (fun a detections -> { a with detections });
      (* Absent in windows written before code-less patching: reads 0. *)
      int ~optional:true "patched" (fun a -> a.patched) (fun a x -> { a with patched = x });
      int "degraded" (fun a -> a.degraded) (fun a degraded -> { a with degraded });
      int "worker_crashes" (fun a -> a.worker_crashes)
        (fun a n -> { a with worker_crashes = n });
      counts "faults" (fun a -> a.faults) (fun a faults -> { a with faults });
      int "snapshots" (fun a -> a.snapshots) (fun a snapshots -> { a with snapshots });
      int "cycles" (fun a -> a.cycles) (fun a cycles -> { a with cycles });
      float "skew_max" (fun a -> a.skew_max) (fun a skew_max -> { a with skew_max });
      float "cdf_last" (fun a -> a.cdf_last) (fun a cdf_last -> { a with cdf_last });
      int "store_last" (fun a -> a.store_last) (fun a store_last -> { a with store_last });
      float "virtual_last" (fun a -> a.virtual_last)
        (fun a v -> { a with virtual_last = v }) ]

let agg_to_json a = Schema.to_json agg_table a
let agg_of_json json = Result.to_option (Schema.of_json agg_table empty json)

(* ---- one-screen renderer ---- *)

let spark_levels = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                      "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                      "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline values =
  match values with
  | [] -> ""
  | _ ->
    let hi = List.fold_left max 1e-9 values in
    values
    |> List.map (fun v ->
           let i =
             int_of_float (v /. hi *. float_of_int (Array.length spark_levels))
           in
           spark_levels.(max 0 (min (Array.length spark_levels - 1) i)))
    |> String.concat ""

let bar ~width frac =
  let full = max 0 (min width (int_of_float (frac *. float_of_int width))) in
  String.concat ""
    (List.init width (fun i ->
         if i < full then "\xe2\x96\x88" else "\xe2\x96\x91"))

let fmt_seconds s =
  if s >= 1.0 then Printf.sprintf "%.2f s" s
  else Printf.sprintf "%.2f ms" (s *. 1e3)

let render ?(color = true) records =
  let c code text = if color then code ^ text ^ "\x1b[0m" else text in
  let bold = c "\x1b[1m" and dim = c "\x1b[2m" in
  let good = c "\x1b[32m" and warn = c "\x1b[33m" in
  let b = Buffer.create 1024 in
  let totals = totals records in
  (match (List.rev records, List.rev totals) with
  | [], _ | _, [] -> Buffer.add_string b "no health records yet\n"
  | last :: _, total :: _ ->
    let det =
      Printf.sprintf "%d (CDF %4.1f%%)" total.detections (100.0 *. total.cdf_last)
    in
    let det = if total.detections > 0 then good det else dim det in
    Buffer.add_string b
      (Printf.sprintf "%s  epoch %d   arrived %d   detections %s   store %d%s\n"
         (bold "CSOD FLEET") last.epoch total.arrivals det last.store_contexts
         (if last.patched > 0 then Printf.sprintf "   patched %d" last.patched
          else ""));
    let tail =
      let all = List.map (fun a -> a.cdf_last) totals in
      let n = List.length all in
      if n > 60 then List.filteri (fun i _ -> i >= n - 60) all else all
    in
    Buffer.add_string b (Printf.sprintf "cdf  %s\n" (sparkline tail));
    Option.iter
      (fun w ->
        let skew_str = Printf.sprintf "%.2fx" w.straggler_skew in
        Buffer.add_string b
          (Printf.sprintf "rate %.0f execs/s   skew %s   snapshots %d\n"
             (if w.epoch_seconds > 0.0 then
                float_of_int last.arrivals /. w.epoch_seconds
              else 0.0)
             (if w.straggler_skew > 1.5 then warn skew_str else skew_str)
             total.snapshots);
        Buffer.add_string b
          (Printf.sprintf "cost epoch %s   merge %s   observer %s\n"
             (fmt_seconds w.epoch_seconds)
             (fmt_seconds w.merge_seconds)
             (fmt_seconds w.observer_seconds)))
      last.wall;
    let fault_str =
      String.concat "   "
        (Printf.sprintf "degraded %d" total.degraded
        :: Printf.sprintf "crashes %d" total.worker_crashes
        :: List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) total.faults)
    in
    Buffer.add_string b (dim ("faults " ^ fault_str) ^ "\n");
    match last.wall with
    | None | Some { domains = []; _ } -> ()
    | Some { domains; _ } ->
      let busiest =
        List.fold_left (fun m d -> max m d.busy_seconds) 1e-9 domains
      in
      Buffer.add_string b
        (dim "  dom   execs       busy   execs/s  load" ^ "\n");
      List.iter
        (fun d ->
          let rate =
            if d.busy_seconds <= 0.0 then 0.0
            else float_of_int d.executed /. d.busy_seconds
          in
          Buffer.add_string b
            (Printf.sprintf "  %3d   %5d   %8s   %6.0f/s  %s\n" d.slot
               d.executed
               (fmt_seconds d.busy_seconds)
               rate
               (bar ~width:24 (d.busy_seconds /. busiest))))
        domains);
  Buffer.contents b
