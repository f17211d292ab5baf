type counter = { c_name : string; mutable count : int }

type gauge = { g_name : string; mutable level : int; mutable high : int }

type histogram = {
  h_name : string;
  bounds : int array; (* strictly increasing upper bounds *)
  buckets : int array; (* length bounds + 1; last is the overflow bucket *)
  mutable observations : int;
  mutable sum : int;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16 }

(* ---- counters ---- *)

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; count = 0 } in
    Hashtbl.replace t.counters name c;
    c

let incr c = c.count <- c.count + 1

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters are monotonic";
  c.count <- c.count + n

let count c = c.count
let counter_name c = c.c_name

(* ---- gauges ---- *)

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; level = 0; high = 0 } in
    Hashtbl.replace t.gauges name g;
    g

let set g v =
  g.level <- v;
  if v > g.high then g.high <- v

let level g = g.level
let high_watermark g = g.high
let gauge_name g = g.g_name

(* ---- histograms ---- *)

let default_bounds = [| 16; 32; 64; 128; 256; 512; 1024; 4096; 16384; 65536 |]

let histogram t ?(bounds = default_bounds) name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    Array.iteri
      (fun i b ->
        if i > 0 && b <= bounds.(i - 1) then
          invalid_arg "Metrics.histogram: bounds must be strictly increasing")
      bounds;
    let h =
      { h_name = name;
        bounds = Array.copy bounds;
        buckets = Array.make (Array.length bounds + 1) 0;
        observations = 0;
        sum = 0 }
    in
    Hashtbl.replace t.histograms name h;
    h

(* A value lands in the first bucket whose upper bound is >= the value;
   values above every bound land in the final overflow bucket.
   A top-level search takes the bounds as arguments: a local one would
   close over them and allocate its closure on every observation. *)
let rec bucket_search (bounds : int array) (v : int) lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if v <= bounds.(mid) then bucket_search bounds v lo mid
    else bucket_search bounds v (mid + 1) hi

let bucket_index h v = bucket_search h.bounds v 0 (Array.length h.bounds)

let observe h v =
  h.observations <- h.observations + 1;
  h.sum <- h.sum + v;
  let i = bucket_index h v in
  h.buckets.(i) <- h.buckets.(i) + 1

(* Bucketed percentile: the upper bound of the bucket holding the q-th
   observation.  Values in the final (unbounded) bucket saturate to the
   largest finite bound — the histogram retains no finer information. *)
let percentile h q =
  if q < 0.0 || q > 1.0 then invalid_arg "Metrics.percentile: q outside [0, 1]";
  let n_bounds = Array.length h.bounds in
  if h.observations = 0 || n_bounds = 0 then 0
  else begin
    let target = max 1 (int_of_float (ceil (q *. float_of_int h.observations))) in
    let rec go i cum =
      if i >= Array.length h.buckets then h.bounds.(n_bounds - 1)
      else
        let cum = cum + h.buckets.(i) in
        if cum >= target then h.bounds.(min i (n_bounds - 1)) else go (i + 1) cum
    in
    go 0 0
  end

let observations h = h.observations
let hist_sum h = h.sum
let bucket_counts h = Array.copy h.buckets
let bucket_bounds h = Array.copy h.bounds
let histogram_name h = h.h_name

(* ---- merge ---- *)

(* Fold [src] into [dst], instrument by instrument.  Counters and histogram
   bins are plain sums, so merging is associative and commutative; gauges
   are not (a gauge is "the level right now"), so the caller fixes the
   order — the fleet merges per-user registries in seed order, making
   "last writer wins" deterministic. *)
let merge_into ~dst ~src =
  Hashtbl.iter
    (fun name (c : counter) -> add (counter dst name) c.count)
    src.counters;
  Hashtbl.iter
    (fun name (g : gauge) ->
      let d = gauge dst name in
      d.level <- g.level;
      if g.high > d.high then d.high <- g.high)
    src.gauges;
  Hashtbl.iter
    (fun name (h : histogram) ->
      let d = histogram dst ~bounds:h.bounds name in
      if d.bounds <> h.bounds then
        invalid_arg
          (Printf.sprintf "Metrics.merge_into: histogram %S bounds differ" name);
      Array.iteri (fun i n -> d.buckets.(i) <- d.buckets.(i) + n) h.buckets;
      d.observations <- d.observations + h.observations;
      d.sum <- d.sum + h.sum)
    src.histograms

(* ---- export ---- *)

let sorted_by_name name tbl =
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun a b -> String.compare (name a) (name b))

let counters_list t =
  List.map (fun c -> (c.c_name, c.count)) (sorted_by_name counter_name t.counters)

let gauges_list t =
  List.map (fun g -> (g.g_name, g.level, g.high)) (sorted_by_name gauge_name t.gauges)

let histograms_list t = sorted_by_name histogram_name t.histograms

let to_json t : Obs_json.t =
  let hist_json h =
    let cells = ref [] in
    Array.iteri
      (fun i n ->
        let label =
          if i < Array.length h.bounds then Printf.sprintf "le_%d" h.bounds.(i)
          else "inf"
        in
        cells := (label, `Int n) :: !cells)
      h.buckets;
    `Assoc
      [ ("observations", `Int h.observations); ("sum", `Int h.sum);
        ("p50", `Int (percentile h 0.50)); ("p90", `Int (percentile h 0.90));
        ("p99", `Int (percentile h 0.99));
        ("buckets", `Assoc (List.rev !cells)) ]
  in
  `Assoc
    [ ("counters", `Assoc (List.map (fun (k, v) -> (k, `Int v)) (counters_list t)));
      ("gauges",
       `Assoc
         (List.map
            (fun (k, level, high) ->
              (k, `Assoc [ ("value", `Int level); ("high", `Int high) ]))
            (gauges_list t)));
      ("histograms",
       `Assoc (List.map (fun h -> (h.h_name, hist_json h)) (histograms_list t))) ]
