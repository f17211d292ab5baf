(* ---- schema ----

   One process-wide schema gives every instrument name a dense id per
   kind.  Subsystems intern their names once, at module initialisation;
   a registry is then an array per kind indexed by id, so finding an
   instrument, merging two registries and resolving gauges never hash a
   name.  Interning is the only shared mutable state, and it happens
   under a lock, so ad-hoc names may also be interned from worker
   domains. *)

type 'kind key = { id : int; name : string }

type kind_schema = { ids : (string, int) Hashtbl.t; mutable size : int }

let lock = Mutex.create ()
let kind_schema () = { ids = Hashtbl.create 64; size = 0 }
let counter_schema = kind_schema ()
let gauge_schema = kind_schema ()
let histogram_schema = kind_schema ()

let intern schema name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt schema.ids name with
      | Some id -> { id; name }
      | None ->
        let id = schema.size in
        Hashtbl.replace schema.ids name id;
        schema.size <- id + 1;
        { id; name })

let key_id k = k.id

(* ---- instruments ---- *)

type counter = { c_key : counter key; mutable count : int }

type gauge = { g_key : gauge key; mutable level : int; mutable high : int }

type histogram = {
  h_key : histogram key;
  bounds : int array; (* strictly increasing upper bounds *)
  buckets : int array; (* length bounds + 1; last is the overflow bucket *)
  small : Bytes.t; (* bucket of each value below its length, or empty *)
  mutable observations : int;
  mutable sum : int;
}

let counter_key name : counter key = intern counter_schema name
let gauge_key name : gauge key = intern gauge_schema name
let histogram_key name : histogram key = intern histogram_schema name

(* Fill the slots of ids a registry does not define; compared
   physically, never exported. *)
let no_counter = { c_key = { id = -1; name = "" }; count = 0 }
let no_gauge = { g_key = { id = -1; name = "" }; level = 0; high = 0 }

let no_histogram =
  { h_key = { id = -1; name = "" }; bounds = [||]; buckets = [||];
    small = Bytes.empty; observations = 0; sum = 0 }

type t = {
  mutable counters : counter array;
  mutable gauges : gauge array;
  mutable histograms : histogram array;
}

let create () = { counters = [||]; gauges = [||]; histograms = [||] }

(* [a] long enough for [id], sized for every name the schema held when
   it grew: a registry grows once per kind in the common case.  The
   unlocked read of the schema's size is only a sizing hint. *)
let widened a id none schema =
  let n = max (id + 1) schema.size in
  let b = Array.make n none in
  Array.blit a 0 b 0 (Array.length a);
  b

(* ---- counters ---- *)

let define_counter t (k : counter key) =
  if k.id >= Array.length t.counters then
    t.counters <- widened t.counters k.id no_counter counter_schema;
  let c = { c_key = k; count = 0 } in
  t.counters.(k.id) <- c;
  c

let counter t (k : counter key) =
  let a = t.counters in
  if k.id < Array.length a && a.(k.id) != no_counter then a.(k.id)
  else define_counter t k

let find_count t (k : counter key) =
  let a = t.counters in
  if k.id < Array.length a && a.(k.id) != no_counter then Some a.(k.id).count
  else None

let counter_named t name = counter t (counter_key name)
let incr c = c.count <- c.count + 1

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters are monotonic";
  c.count <- c.count + n

let count c = c.count

(* ---- gauges ---- *)

let define_gauge t (k : gauge key) =
  if k.id >= Array.length t.gauges then
    t.gauges <- widened t.gauges k.id no_gauge gauge_schema;
  let g = { g_key = k; level = 0; high = 0 } in
  t.gauges.(k.id) <- g;
  g

let gauge t (k : gauge key) =
  let a = t.gauges in
  if k.id < Array.length a && a.(k.id) != no_gauge then a.(k.id)
  else define_gauge t k

let gauge_named t name = gauge t (gauge_key name)

let set g v =
  g.level <- v;
  if v > g.high then g.high <- v

let level g = g.level
let high_watermark g = g.high

(* ---- histograms ---- *)

let default_bounds = [| 16; 32; 64; 128; 256; 512; 1024; 4096; 16384; 65536 |]

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

(* The bucket of every value in [0, 4096], one byte each: [observe] looks
   a small value up instead of searching, whose branches a stream of
   random sizes mispredicts.  Built once, for [default_bounds], and
   shared by every histogram on them; other bounds search. *)
let small_limit = 4096

let default_small =
  Bytes.init (small_limit + 1) (fun v ->
      Char.chr (bucket_search default_bounds v 0 (Array.length default_bounds)))

let define_histogram t bounds (k : histogram key) =
  Array.iteri
    (fun i b ->
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Metrics.histogram: bounds must be strictly increasing")
    bounds;
  if k.id >= Array.length t.histograms then
    t.histograms <- widened t.histograms k.id no_histogram histogram_schema;
  let h =
    { h_key = k;
      bounds = Array.copy bounds;
      buckets = Array.make (Array.length bounds + 1) 0;
      small = (if bounds = default_bounds then default_small else Bytes.empty);
      observations = 0;
      sum = 0 }
  in
  t.histograms.(k.id) <- h;
  h

let histogram t ?(bounds = default_bounds) (k : histogram key) =
  let a = t.histograms in
  if k.id < Array.length a && a.(k.id) != no_histogram then a.(k.id)
  else define_histogram t bounds k

let histogram_named t ?bounds name = histogram t ?bounds (histogram_key name)

let bucket_index h v =
  if v >= 0 && v < Bytes.length h.small then Char.code (Bytes.unsafe_get h.small v)
  else bucket_search h.bounds v 0 (Array.length h.bounds)

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

(* ---- merge ---- *)

(* Fold [src] into [dst], id by id.  Counters and histogram bins are
   plain sums, so merging is associative and commutative; gauges are not
   (a gauge is "the level right now"), so the caller fixes the order —
   the fleet merges per-user registries in seed order, making "last
   writer wins" deterministic. *)
let merge_into ~dst ~src =
  Array.iter
    (fun c -> if c != no_counter then add (counter dst c.c_key) c.count)
    src.counters;
  Array.iter
    (fun g ->
      if g != no_gauge then begin
        let d = gauge dst g.g_key in
        d.level <- g.level;
        if g.high > d.high then d.high <- g.high
      end)
    src.gauges;
  Array.iter
    (fun h ->
      if h != no_histogram then begin
        let d = histogram dst ~bounds:h.bounds h.h_key in
        if d.bounds <> h.bounds then
          invalid_arg
            (Printf.sprintf "Metrics.merge_into: histogram %S bounds differ"
               h.h_key.name);
        Array.iteri (fun i n -> d.buckets.(i) <- d.buckets.(i) + n) h.buckets;
        d.observations <- d.observations + h.observations;
        d.sum <- d.sum + h.sum
      end)
    src.histograms

(* ---- export ---- *)

(* The defined instruments of [a], sorted by name: ids follow interning
   order, which differs between processes. *)
let sorted_by_name none name a =
  Array.fold_left (fun acc v -> if v != none then v :: acc else acc) [] a
  |> List.sort (fun x y -> String.compare (name x) (name y))

let counters_list t =
  sorted_by_name no_counter (fun c -> c.c_key.name) t.counters
  |> List.map (fun c -> (c.c_key.name, c.count))

let gauges_list t =
  sorted_by_name no_gauge (fun g -> g.g_key.name) t.gauges
  |> List.map (fun g -> (g.g_key.name, g.level, g.high))

let histograms_list t = sorted_by_name no_histogram (fun h -> h.h_key.name) t.histograms

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
       `Assoc (List.map (fun h -> (h.h_key.name, hist_json h)) (histograms_list t))) ]
