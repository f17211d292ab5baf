(* Tests for the telemetry subsystem: metrics registry, cycle-attribution
   profiler, the flight recorder and its JSONL stream, snapshot scheduling
   — and the guarantee that none of it changes a simulated execution. *)

(* ---------- Counters ---------- *)

let test_counter_basics () =
  let reg = Metrics.create () in
  let c = Metrics.counter_named reg "x" in
  Alcotest.(check int) "starts at 0" 0 (Metrics.count c);
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Metrics.count c);
  let c' = Metrics.counter_named reg "x" in
  Metrics.incr c';
  Alcotest.(check int) "find-or-create shares the cell" 43 (Metrics.count c);
  Metrics.add c 0;
  Alcotest.(check int) "add 0 is a no-op" 43 (Metrics.count c)

let test_counter_monotonic () =
  let reg = Metrics.create () in
  let c = Metrics.counter_named reg "x" in
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Metrics.add: counters are monotonic") (fun () ->
      Metrics.add c (-1));
  Alcotest.(check int) "unchanged after rejection" 0 (Metrics.count c)

let test_gauge () =
  let reg = Metrics.create () in
  let g = Metrics.gauge_named reg "g" in
  Metrics.set g 7;
  Metrics.set g 3;
  Alcotest.(check int) "level follows last set" 3 (Metrics.level g);
  Alcotest.(check int) "high watermark sticks" 7 (Metrics.high_watermark g)

(* ---------- Histogram bucket boundaries ---------- *)

let test_histogram_boundaries () =
  let reg = Metrics.create () in
  let h = Metrics.histogram_named reg ~bounds:[| 10; 20; 30 |] "h" in
  (* A value lands in the first bucket with bound >= v: exact bounds stay
     in their own bucket, bound+1 spills into the next. *)
  List.iter (Metrics.observe h) [ 0; 10; 11; 20; 21; 30; 31; 1000 ];
  Alcotest.(check (array int)) "bucket boundaries" [| 2; 2; 2; 2 |]
    (Metrics.bucket_counts h);
  Alcotest.(check int) "observations" 8 (Metrics.observations h);
  Alcotest.(check int) "sum" (0 + 10 + 11 + 20 + 21 + 30 + 31 + 1000)
    (Metrics.hist_sum h);
  Alcotest.(check int) "bucket counts sum to observations"
    (Metrics.observations h)
    (Array.fold_left ( + ) 0 (Metrics.bucket_counts h))

let test_histogram_default_bounds () =
  let reg = Metrics.create () in
  let h = Metrics.histogram_named reg "sizes" in
  Alcotest.(check (array int)) "default bounds" Metrics.default_bounds
    (Metrics.bucket_bounds h);
  Alcotest.(check int) "overflow bucket exists"
    (Array.length Metrics.default_bounds + 1)
    (Array.length (Metrics.bucket_counts h))

(* On the default bounds, small values are looked up in a table: every
   value lands where the bounds alone put it, on both sides of the table's
   end and of every bound. *)
let test_histogram_table () =
  let reg = Metrics.create () in
  let h = Metrics.histogram_named reg "table" in
  let bounds = Metrics.default_bounds in
  let expected v =
    let rec go i = if i = Array.length bounds || v <= bounds.(i) then i else go (i + 1) in
    go 0
  in
  let values =
    List.init 4_200 (fun v -> v - 10)
    @ List.concat_map (fun b -> [ b - 1; b; b + 1 ]) (Array.to_list bounds)
    @ [ min_int; max_int ]
  in
  List.iter
    (fun v ->
      let before = Metrics.bucket_counts h in
      Metrics.observe h v;
      let after = Metrics.bucket_counts h in
      let i = expected v in
      if after.(i) <> before.(i) + 1 then Alcotest.failf "value %d: not in bucket %d" v i)
    values

(* ---------- Registry merging (fleet aggregation) ---------- *)

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add (Metrics.counter_named a "c") 3;
  Metrics.add (Metrics.counter_named b "c") 4;
  Metrics.add (Metrics.counter_named b "only_b") 7;
  Metrics.set (Metrics.gauge_named a "g") 10;
  Metrics.set (Metrics.gauge_named b "g") 2;
  Metrics.merge_into ~dst:a ~src:b;
  Alcotest.(check int) "counters sum" 7 (Metrics.count (Metrics.counter_named a "c"));
  Alcotest.(check int) "missing counter created" 7
    (Metrics.count (Metrics.counter_named a "only_b"));
  Alcotest.(check int) "gauge takes last merged level" 2
    (Metrics.level (Metrics.gauge_named a "g"));
  Alcotest.(check int) "gauge high watermark is max" 10
    (Metrics.high_watermark (Metrics.gauge_named a "g"));
  Alcotest.(check int) "src counter untouched" 4
    (Metrics.count (Metrics.counter_named b "c"))

let test_metrics_merge_histograms () =
  let a = Metrics.create () and b = Metrics.create () in
  let bounds = [| 10; 20 |] in
  let ha = Metrics.histogram_named a ~bounds "h" in
  let hb = Metrics.histogram_named b ~bounds "h" in
  List.iter (Metrics.observe ha) [ 5; 15 ];
  List.iter (Metrics.observe hb) [ 15; 25; 25 ];
  Metrics.merge_into ~dst:a ~src:b;
  Alcotest.(check (array int)) "bins add" [| 1; 2; 2 |] (Metrics.bucket_counts ha);
  Alcotest.(check int) "observations add" 5 (Metrics.observations ha);
  Alcotest.(check int) "sums add" (5 + 15 + 15 + 25 + 25) (Metrics.hist_sum ha);
  (* Percentiles are recomputed over the union: p50 of {5,15,15,25,25}
     sits in the 11..20 bucket, p99 in the overflow bucket (saturating to
     the largest finite bound). *)
  Alcotest.(check int) "post-merge p50" 20 (Metrics.percentile ha 0.50);
  Alcotest.(check int) "post-merge p99" 20 (Metrics.percentile ha 0.99);
  (* Same name, different bounds: refuse rather than mis-bin. *)
  let c = Metrics.create () in
  ignore (Metrics.histogram_named c ~bounds:[| 1; 2 |] "h");
  Alcotest.(check bool) "bounds mismatch rejected" true
    (try
       Metrics.merge_into ~dst:a ~src:c;
       false
     with Invalid_argument _ -> true);
  (* A histogram missing from dst is created whole. *)
  let d = Metrics.create () in
  Metrics.merge_into ~dst:d ~src:b;
  Alcotest.(check (array int)) "missing histogram created" [| 0; 1; 2 |]
    (Metrics.bucket_counts (Metrics.histogram_named d ~bounds "h"))

(* ---------- Keyed registries against a name-keyed model ---------- *)

(* What a registry holds, keyed by name as the registry was before
   instruments had ids: counts, (level, high) and raw observations. *)
type model = {
  m_counters : (string, int) Hashtbl.t;
  m_gauges : (string, int * int) Hashtbl.t;
  m_hists : (string, int array * int list) Hashtbl.t; (* bounds, values *)
}

let new_model () =
  { m_counters = Hashtbl.create 8; m_gauges = Hashtbl.create 8; m_hists = Hashtbl.create 8 }

let model_counter_names = Array.init 12 (Printf.sprintf "model.c%02d")
let model_gauge_names = Array.init 5 (Printf.sprintf "model.g%d")
let model_hist_names = Array.init 4 (Printf.sprintf "model.h%d")

let model_bounds i =
  match i with
  | 0 -> Metrics.default_bounds
  | 1 -> [| 10; 20; 30 |]
  | 2 -> [| 1 |]
  | _ -> [| 5; 50; 500; 5000 |]

(* One registry and its model, from [n] random operations: define,
   add, set and observe, through keys or through names. *)
let random_registry g n =
  let reg = Metrics.create () and md = new_model () in
  let pick a = a.(Prng.int g (Array.length a)) in
  for _ = 1 to n do
    let by_key = Prng.bool g in
    match Prng.int g 3 with
    | 0 ->
      let name = pick model_counter_names and v = Prng.int g 3 * Prng.int g 20 in
      let c =
        if by_key then Metrics.counter reg (Metrics.counter_key name)
        else Metrics.counter_named reg name
      in
      Metrics.add c v;
      let old = Option.value ~default:0 (Hashtbl.find_opt md.m_counters name) in
      Hashtbl.replace md.m_counters name (old + v)
    | 1 ->
      let name = pick model_gauge_names in
      let gauge =
        if by_key then Metrics.gauge reg (Metrics.gauge_key name)
        else Metrics.gauge_named reg name
      in
      let level, high =
        Option.value ~default:(0, 0) (Hashtbl.find_opt md.m_gauges name)
      in
      if Prng.int g 4 = 0 then Hashtbl.replace md.m_gauges name (level, high)
      else begin
        let v = Prng.int g 120 - 10 in
        Metrics.set gauge v;
        Hashtbl.replace md.m_gauges name (v, max high v)
      end
    | _ ->
      let i = Prng.int g (Array.length model_hist_names) in
      let name = model_hist_names.(i) and bounds = model_bounds i in
      let h =
        if by_key then Metrics.histogram reg ~bounds (Metrics.histogram_key name)
        else Metrics.histogram_named reg ~bounds name
      in
      let _, vs =
        Option.value ~default:(bounds, []) (Hashtbl.find_opt md.m_hists name)
      in
      let vs =
        if Prng.int g 4 = 0 then vs
        else begin
          let v = Prng.int g 70_000 in
          Metrics.observe h v;
          v :: vs
        end
      in
      Hashtbl.replace md.m_hists name (bounds, vs)
  done;
  (reg, md)

(* The model of folding [mds] in order: counts and observations add, a
   gauge's level is the last definer's, its high the largest. *)
let model_fold mds =
  let acc = new_model () in
  List.iter
    (fun md ->
      Hashtbl.iter
        (fun k v ->
          let old = Option.value ~default:0 (Hashtbl.find_opt acc.m_counters k) in
          Hashtbl.replace acc.m_counters k (old + v))
        md.m_counters;
      Hashtbl.iter
        (fun k (level, high) ->
          let h = match Hashtbl.find_opt acc.m_gauges k with Some (_, h) -> h | None -> 0 in
          Hashtbl.replace acc.m_gauges k (level, max h high))
        md.m_gauges;
      Hashtbl.iter
        (fun k (bounds, vs) ->
          let old = match Hashtbl.find_opt acc.m_hists k with Some (_, o) -> o | None -> [] in
          Hashtbl.replace acc.m_hists k (bounds, vs @ old))
        md.m_hists)
    mds;
  acc

let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let model_bucket bounds v =
  let rec go i = if i >= Array.length bounds || v <= bounds.(i) then i else go (i + 1) in
  go 0

let model_buckets bounds vs =
  let b = Array.make (Array.length bounds + 1) 0 in
  List.iter (fun v -> let i = model_bucket bounds v in b.(i) <- b.(i) + 1) vs;
  b

(* The bound of the bucket holding the q-th smallest value, saturating to
   the largest bound. *)
let model_percentile bounds vs q =
  let n = List.length vs and nb = Array.length bounds in
  if n = 0 || nb = 0 then 0
  else
    let target = max 1 (int_of_float (ceil (q *. float_of_int n))) in
    let v = List.nth (List.sort compare vs) (target - 1) in
    bounds.(min (model_bucket bounds v) (nb - 1))

let model_json md : Obs_json.t =
  let hist (bounds, vs) =
    let buckets = model_buckets bounds vs in
    `Assoc
      [ ("observations", `Int (List.length vs));
        ("sum", `Int (List.fold_left ( + ) 0 vs));
        ("p50", `Int (model_percentile bounds vs 0.50));
        ("p90", `Int (model_percentile bounds vs 0.90));
        ("p99", `Int (model_percentile bounds vs 0.99));
        ("buckets",
         `Assoc
           (Array.to_list
              (Array.mapi
                 (fun i n ->
                   ( (if i < Array.length bounds then Printf.sprintf "le_%d" bounds.(i)
                      else "inf"),
                     `Int n ))
                 buckets))) ]
  in
  `Assoc
    [ ("counters", `Assoc (List.map (fun (k, v) -> (k, `Int v)) (sorted md.m_counters)));
      ("gauges",
       `Assoc
         (List.map
            (fun (k, (l, h)) -> (k, `Assoc [ ("value", `Int l); ("high", `Int h) ]))
            (sorted md.m_gauges)));
      ("histograms", `Assoc (List.map (fun (k, v) -> (k, hist v)) (sorted md.m_hists))) ]

let check_against_model tag reg md =
  Alcotest.(check (list (pair string int))) (tag ^ ": counters_list")
    (sorted md.m_counters) (Metrics.counters_list reg);
  Alcotest.(check (list (triple string int int))) (tag ^ ": gauges_list")
    (List.map (fun (k, (l, h)) -> (k, l, h)) (sorted md.m_gauges))
    (Metrics.gauges_list reg);
  Alcotest.(check (list (pair (array int) (array int)))) (tag ^ ": histograms_list")
    (List.map (fun (_, (bounds, vs)) -> (bounds, model_buckets bounds vs)) (sorted md.m_hists))
    (List.map
       (fun h -> (Metrics.bucket_bounds h, Metrics.bucket_counts h))
       (Metrics.histograms_list reg));
  Alcotest.(check string) (tag ^ ": to_json")
    (Obs_json.to_string (model_json md))
    (Obs_json.to_string (Metrics.to_json reg))

(* Random sets and orders of instruments over 60 trials: each registry
   alone and their fold by [merge_into] in uid order match the name-keyed
   model. *)
let test_keyed_registry_model () =
  let g = Prng.create ~seed:2024 in
  for trial = 1 to 60 do
    let n = 1 + Prng.int g 8 in
    let regs = List.init n (fun _ -> random_registry g (Prng.int g 25)) in
    List.iteri
      (fun i (reg, md) -> check_against_model (Printf.sprintf "trial %d, registry %d" trial i) reg md)
      regs;
    let expected = model_fold (List.map snd regs) in
    let direct = Metrics.create () in
    List.iter (fun (reg, _) -> Metrics.merge_into ~dst:direct ~src:reg) regs;
    check_against_model (Printf.sprintf "trial %d, merged" trial) direct expected;
  done

(* Two domains intern the same 300 names at once, in different orders,
   and count through them: each name gets one id, distinct names get
   distinct ids, and the two registries merge as names. *)
let test_keys_from_two_domains () =
  let names = Array.init 300 (Printf.sprintf "two_domains.c%03d") in
  let work seed () =
    let g = Prng.create ~seed in
    let order = Array.copy names in
    for i = Array.length order - 1 downto 1 do
      let j = Prng.int g (i + 1) in
      let x = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- x
    done;
    let reg = Metrics.create () in
    let ids =
      Array.map
        (fun name ->
          let k = Metrics.counter_key name in
          Metrics.incr (Metrics.counter reg k);
          (name, Metrics.key_id k))
        order
    in
    (List.sort compare (Array.to_list ids), reg)
  in
  let d1 = Domain.spawn (work 1) and d2 = Domain.spawn (work 2) in
  let ids1, r1 = Domain.join d1 and ids2, r2 = Domain.join d2 in
  Alcotest.(check (list (pair string int))) "one id per name" ids1 ids2;
  Alcotest.(check int) "distinct names, distinct ids" 300
    (List.length (List.sort_uniq compare (List.map snd ids1)));
  let merged = Metrics.create () in
  Metrics.merge_into ~dst:merged ~src:r1;
  Metrics.merge_into ~dst:merged ~src:r2;
  Alcotest.(check (list (pair string int))) "merged by name"
    (List.map (fun n -> (n, 2)) (Array.to_list names))
    (Metrics.counters_list merged)

let test_profiler_merge () =
  let a = Profiler.create () and b = Profiler.create () in
  Profiler.charge a Profiler.App 100;
  Profiler.charge a Profiler.Smu_lookup 7;
  Profiler.charge b Profiler.App 40;
  Profiler.charge b Profiler.Trap_dispatch 3;
  Profiler.merge_into ~dst:a ~src:b;
  Alcotest.(check int) "phases sum" 140 (Profiler.cycles a Profiler.App);
  Alcotest.(check int) "disjoint phase kept" 7 (Profiler.cycles a Profiler.Smu_lookup);
  Alcotest.(check int) "src phase added" 3 (Profiler.cycles a Profiler.Trap_dispatch);
  Alcotest.(check int) "merged total is sum of totals" 150 (Profiler.total a);
  Alcotest.(check int) "src untouched" 43 (Profiler.total b)

(* ---------- Profiler ---------- *)

let test_profiler () =
  let p = Profiler.create () in
  Profiler.charge p Profiler.App 100;
  Profiler.charge p Profiler.Wmu_install 40;
  Profiler.charge p Profiler.Wmu_install 2;
  Alcotest.(check int) "per-phase" 42 (Profiler.cycles p Profiler.Wmu_install);
  Alcotest.(check int) "total" 142 (Profiler.total p);
  Alcotest.(check int) "tool total excludes app" 42 (Profiler.tool_total p);
  Alcotest.check_raises "negative charge rejected"
    (Invalid_argument "Profiler.charge: negative cycles") (fun () ->
      Profiler.charge p Profiler.App (-1));
  Alcotest.(check (list string)) "phase names are unique and dotted"
    (List.sort_uniq compare (List.map Profiler.name Profiler.all))
    (List.sort compare (List.map Profiler.name Profiler.all));
  Profiler.reset p;
  Alcotest.(check int) "reset" 0 (Profiler.total p)

(* Registry totals equal the sum of per-phase profiler charges for a
   random operation stream (the ISSUE's cross-check property): every op
   both charges the profiler and bumps a per-phase counter. *)
let prop_profiler_registry_agree =
  let phases = Array.of_list Profiler.all in
  QCheck.Test.make ~name:"profiler charges == registry totals" ~count:200
    QCheck.(list (pair (int_range 0 (Array.length phases - 1)) (int_range 0 5000)))
    (fun ops ->
      let reg = Metrics.create () in
      let p = Profiler.create () in
      List.iter
        (fun (i, n) ->
          Profiler.charge p phases.(i) n;
          Metrics.add (Metrics.counter_named reg (Profiler.name phases.(i))) n)
        ops;
      let counter_total =
        List.fold_left (fun acc (_, n) -> acc + n) 0 (Metrics.counters_list reg)
      in
      Profiler.total p = counter_total
      && Profiler.total p = List.fold_left (fun acc (_, n) -> acc + n) 0 ops
      && List.for_all
           (fun ph ->
             Profiler.cycles p ph
             = Metrics.count (Metrics.counter_named reg (Profiler.name ph)))
           Profiler.all)

(* Machine-level attribution: everything the clock advances is charged to
   exactly one phase, so the per-phase sum equals the clock reading. *)
let prop_machine_attribution =
  let phases = Array.of_list Profiler.all in
  QCheck.Test.make ~name:"machine: phase totals == clock cycles" ~count:100
    QCheck.(list (pair (int_range 0 (Array.length phases - 1)) (int_range 0 1000)))
    (fun ops ->
      let m = Machine.create ~seed:11 () in
      List.iter (fun (i, n) -> Machine.work_as m phases.(i) n) ops;
      let p = Telemetry.profiler (Machine.telemetry m) in
      Profiler.total p = Clock.cycles (Machine.clock m))

let test_in_phase_outermost_wins () =
  let m = Machine.create ~seed:1 () in
  Machine.in_phase m Profiler.Trap_dispatch (fun () ->
      Machine.work_as m Profiler.Wmu_evict 50);
  let p = Telemetry.profiler (Machine.telemetry m) in
  Alcotest.(check int) "inner work charged to outer phase" 50
    (Profiler.cycles p Profiler.Trap_dispatch);
  Alcotest.(check int) "nothing leaked to the inner phase" 0
    (Profiler.cycles p Profiler.Wmu_evict)

(* ---------- The recorder's stream ---------- *)

(* Run [f] under a recorder streaming into a fresh temporary file: the
   recorder, [f]'s result and the file's bytes, read back once the
   recording has ended and the channel is closed. *)
let recorded_stream ?capacity f =
  let path = Filename.temp_file "csod_stream" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let r, v =
        Out_channel.with_open_bin path (fun oc ->
            let r = Flight_recorder.create ?capacity ~stream:oc () in
            (r, Flight_recorder.with_recorder r f))
      in
      (r, v, In_channel.with_open_bin path In_channel.input_all))

let nonempty_lines s = String.split_on_char '\n' s |> List.filter (( <> ) "")

(* The stream is installed and restored with its recorder: no stream
   outside one, none under a recorder created without one, and an inner
   recorder's end gives the outer one's stream back. *)
let test_event_sink () =
  Alcotest.(check bool) "no stream by default" false (Flight_recorder.streaming ());
  Flight_recorder.stream_event "dropped" [];
  let _, (), text =
    recorded_stream (fun () ->
        Alcotest.(check bool) "streaming inside" true (Flight_recorder.streaming ());
        Flight_recorder.with_recorder (Flight_recorder.create ~capacity:1 ()) (fun () ->
            Alcotest.(check bool) "an inner recorder without a stream" false
              (Flight_recorder.streaming ());
            Flight_recorder.stream_event "dropped" []);
        Alcotest.(check bool) "outer stream restored" true
          (Flight_recorder.streaming ());
        Flight_recorder.stream_event "hello" [ ("n", `Int 1) ])
  in
  Alcotest.(check bool) "restored" false (Flight_recorder.streaming ());
  Alcotest.(check string) "one JSONL line, event field first"
    "{\"event\":\"hello\",\"n\":1}\n" text

(* The stream renders through the recorder's reused line buffer exactly
   what [Obs_json.to_string] renders, for the encoder's edge values; a
   long event followed by a short one and a record catches a buffer that
   is not cleared. *)
let test_event_sink_renders_as_to_string () =
  let edges : (string * Obs_json.t) list =
    [ ("nan", `Float Float.nan); ("neg_zero", `Float (-0.));
      ("inf", `Float infinity); ("neg_inf", `Float neg_infinity);
      ("subnormal", `Float 4.9e-324); ("neg", `Int (-42)); ("zero", `Int 0);
      ("min_int", `Int min_int); ("max_int", `Int max_int);
      ("ten", `Int 10);
      ("chars", `String "a\"b\\c\n\r\t\x00\x01\x1f\x7f\xc3\xa9z");
      ("key \"\\\x02", `List [ `Int 7; `Null; `Bool true ]) ]
  in
  let expected =
    {|{"event":"edges","nan":null,"neg_zero":-0,"inf":null,"neg_inf":null,|}
    ^ {|"subnormal":4.94065645841e-324,"neg":-42,"zero":0,|}
    ^ {|"min_int":-4611686018427387904,"max_int":4611686018427387903,|}
    ^ {|"ten":10,"chars":"a\"b\\c\n\r\t\u0000\u0001\u001f|} ^ "\x7f\xc3\xa9z\","
    ^ {|"key \"\\\u0002":[7,null,true]}|}
  in
  Alcotest.(check string) "to_string" expected
    (Obs_json.to_string (`Assoc (("event", `String "edges") :: edges)));
  let events = [ ("edges", edges); ("short", [ ("n", `Int 1) ]) ] in
  let want =
    List.map
      (fun (name, fields) ->
        Obs_json.to_string (`Assoc (("event", `String name) :: fields)))
      events
  in
  let _, (), text =
    recorded_stream (fun () ->
        List.iter (fun (name, fields) -> Flight_recorder.stream_event name fields) events;
        Flight_recorder.free ~at:1 ~addr:2)
  in
  Alcotest.(check (list string)) "stream"
    (want @ [ {|{"event":"free","seq":0,"at":1,"addr":2}|} ])
    (nonempty_lines text)

(* ---------- Snapshots under the virtual clock ---------- *)

let snapshot_stream seed =
  let m = Machine.create ~seed () in
  Telemetry.set_snapshot_interval (Machine.telemetry m) ~cycles:1_000;
  let _, (), text =
    recorded_stream (fun () -> List.iter (Machine.work m) [ 400; 400; 400; 2_600; 100 ])
  in
  (Telemetry.snapshot_count (Machine.telemetry m), text)

let test_snapshot_determinism () =
  let n1, s1 = snapshot_stream 3 in
  let n2, s2 = snapshot_stream 3 in
  (* 3,900 cycles at a 1,000-cycle interval: boundaries 1000, 2000, 3000. *)
  Alcotest.(check int) "snapshot per crossed boundary" 3 n1;
  Alcotest.(check int) "deterministic count" n1 n2;
  Alcotest.(check string) "byte-identical streams" s1 s2;
  String.split_on_char '\n' s1
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun l ->
         Alcotest.(check bool) "every line is a snapshot event" true
           (String.length l > 20
           && String.sub l 0 20 = "{\"event\":\"snapshot\","));
  (* A boundary crossed with no stream attached is neither written nor
     counted. *)
  let m = Machine.create ~seed:3 () in
  Telemetry.set_snapshot_interval (Machine.telemetry m) ~cycles:1_000;
  Flight_recorder.with_recorder (Flight_recorder.create ~capacity:1 ()) (fun () ->
      Machine.work m 3_900);
  Alcotest.(check int) "no stream, no snapshot" 0
    (Telemetry.snapshot_count (Machine.telemetry m))

(* ---------- Integration: Heartbleed under CSOD with metrics ---------- *)

let heartbleed_outcome = lazy (
  let app = Option.get (Buggy_app.by_name "Heartbleed") in
  match
    Execution.run_until_detected ~app ~config:Config.csod_default ~max_runs:64
  with
  | None -> Alcotest.fail "Heartbleed not detected within 64 executions"
  | Some (_, o) -> o)

let test_heartbleed_metrics () =
  let o = Lazy.force heartbleed_outcome in
  let reg = Telemetry.metrics o.Execution.telemetry in
  let count name = Metrics.count (Metrics.counter_named reg name) in
  Alcotest.(check bool) "smu.decisions nonzero" true (count "smu.decisions" > 0);
  Alcotest.(check bool) "installs bounded by allocations" true
    (count "wmu.installs" <= count "smu.allocations");
  Alcotest.(check bool) "at least one trap on the detecting seed" true
    (count "trap.count" >= 1);
  Alcotest.(check bool) "a report was recorded" true (count "report.count" >= 1);
  (* The registry agrees with the runtime's own stats. *)
  match o.Execution.stats with
  | None -> Alcotest.fail "csod run must have stats"
  | Some s ->
    Alcotest.(check int) "registry allocations == runtime stats"
      s.Runtime.allocations (count "smu.allocations");
    Alcotest.(check int) "registry contexts == runtime stats"
      s.Runtime.contexts
      (let _, v, _ =
         List.find (fun (n, _, _) -> n = "smu.contexts") (Metrics.gauges_list reg)
       in
       v)

let test_heartbleed_profile_coverage () =
  let o = Lazy.force heartbleed_outcome in
  let p = Telemetry.profiler o.Execution.telemetry in
  (* Acceptance bound: per-phase totals within 1% of the clock total.  The
     attribution is exact by construction, so check equality. *)
  Alcotest.(check int) "phase sum covers every charged cycle"
    o.Execution.cycles (Profiler.total p);
  Alcotest.(check bool) "tool overhead is a strict subset" true
    (Profiler.tool_total p > 0 && Profiler.tool_total p < Profiler.total p)

(* Enabling telemetry export must not change the execution: same seed with
   a streaming recorder + snapshots vs. bare produces identical results. *)
let test_metrics_do_not_perturb () =
  let app = Option.get (Buggy_app.by_name "Heartbleed") in
  let bare seed = Execution.run ~app ~config:Config.csod_default ~seed () in
  let observed seed =
    let _, o, _ =
      recorded_stream (fun () ->
          Execution.run ~app ~config:Config.csod_default ~seed
            ~snapshot_cycles:50_000_000 ())
    in
    o
  in
  List.iter
    (fun seed ->
      let a = bare seed and b = observed seed in
      Alcotest.(check bool) "same detection" a.Execution.detected
        b.Execution.detected;
      Alcotest.(check int) "same cycles" a.Execution.cycles b.Execution.cycles;
      Alcotest.(check int) "same report count"
        (List.length a.Execution.reports) (List.length b.Execution.reports);
      Alcotest.(check string) "same program output" a.Execution.output
        b.Execution.output)
    [ 1; 2; 3 ]

(* The lifecycle stream is a subscriber of the flight recorder: a
   detecting Heartbleed run under a streaming ring that drops nothing
   streams exactly [records r], in order and byte for byte.  A bare run
   emits nothing else (no snapshots, no respond records). *)
let streamed ?respond ?snapshot_cycles ~config ~seed app =
  let r, _, text =
    recorded_stream ~capacity:(1 lsl 17) (fun () ->
        Execution.run ~app ~config ~seed ?respond ?snapshot_cycles ())
  in
  (r, nonempty_lines text)

let lifecycle_stream = lazy (
  let app = Option.get (Buggy_app.by_name "Heartbleed") in
  let seed =
    match
      Execution.run_until_detected ~app ~config:Config.csod_default ~max_runs:64
    with
    | Some (seed, _) -> seed
    | None -> Alcotest.fail "no detecting seed"
  in
  streamed ~config:Config.csod_default ~seed app)

let event_name line =
  match Obs_json.of_string line with
  | Ok j -> (
    match Obs_json.member "event" j with Some (`String e) -> e | _ -> "")
  | Error msg -> Alcotest.failf "unparsable line %s: %s" line msg

(* The ring's records as the stream's lines. *)
let ring_lines r =
  List.map
    (fun rec_ ->
      match Flight_recorder.record_to_json rec_ with
      | `Assoc (("kind", kind) :: fields) ->
        Obs_json.to_string (`Assoc (("event", kind) :: fields))
      | _ -> Alcotest.fail "record_to_json: kind is not the first field")
    (Flight_recorder.records r)

let test_lifecycle_stream_is_the_ring () =
  let r, lines = Lazy.force lifecycle_stream in
  Alcotest.(check int) "ring dropped nothing" 0 (Flight_recorder.dropped r);
  Alcotest.(check (list string)) "stream = records, in order" (ring_lines r) lines;
  let count e = List.length (List.filter (fun l -> event_name l = e) lines) in
  Alcotest.(check int) "exactly one detection" 1 (count "detection");
  Alcotest.(check int) "the ring counted it" 1 (Flight_recorder.detection_count r);
  Alcotest.(check int) "one decision per allocation" (count "alloc")
    (count "decision");
  Alcotest.(check int) "no respond records" 0 (count "respond")

(* With snapshots scheduled, the stream is the ring with snapshot lines
   between its records: taken out, the rest is [records r] in order, and
   each snapshot sits at its cycle boundary — after every record stamped
   before it, before every record stamped at or after it. *)
let test_snapshots_sit_at_their_boundaries () =
  let app = Option.get (Buggy_app.by_name "Heartbleed") in
  let every = Cost.cycles_per_second / 4 in
  let r, lines =
    streamed ~snapshot_cycles:every ~config:Config.csod_default ~seed:3 app
  in
  Alcotest.(check int) "ring dropped nothing" 0 (Flight_recorder.dropped r);
  let int_field name line =
    match Obs_json.of_string line with
    | Ok j -> Option.get (Option.bind (Obs_json.member name j) Obs_json.to_int)
    | Error msg -> Alcotest.failf "unparsable line %s: %s" line msg
  in
  let snapshots, records =
    List.partition (fun l -> event_name l = "snapshot") lines
  in
  Alcotest.(check (list string)) "stream less snapshots = records, in order"
    (ring_lines r) records;
  let n = List.length snapshots in
  Alcotest.(check bool) "several snapshots" true (n >= 3);
  Alcotest.(check (list (pair int int))) "seq 1.. at each boundary"
    (List.init n (fun i -> (i + 1, (i + 1) * every)))
    (List.map (fun l -> (int_field "seq" l, int_field "cycles" l)) snapshots);
  ignore
    (List.fold_left
       (fun boundary line ->
         if event_name line = "snapshot" then int_field "cycles" line
         else begin
           let at = int_field "at" line in
           if at < boundary then
             Alcotest.failf "record at %d streamed after the snapshot at %d" at boundary;
           if at >= boundary + every then
             Alcotest.failf "record at %d streamed before the snapshot at %d" at
               (boundary + every);
           boundary
         end)
       0 lines)

(* Under failure-oblivious response the redirects are ring records too:
   the stream is still the ring, byte for byte, with CSOD and with ASan,
   and no line carries a schema tag of its own. *)
let test_respond_stream_is_the_ring () =
  let app = Option.get (Buggy_app.by_name "Heartbleed") in
  List.iter
    (fun (config, seed) ->
      let label = Printf.sprintf "%s seed %d" (Config.label config) seed in
      let r, lines = streamed ~respond:Respond.Oblivious ~config ~seed app in
      Alcotest.(check int) (label ^ ": ring dropped nothing") 0
        (Flight_recorder.dropped r);
      Alcotest.(check (list string)) (label ^ ": stream = records") (ring_lines r)
        lines;
      let actions =
        List.filter_map
          (fun rec_ ->
            match rec_.Flight_recorder.kind with
            | Flight_recorder.Respond { action; _ } -> Some action
            | _ -> None)
          (Flight_recorder.records r)
      in
      Alcotest.(check bool) (label ^ ": reads redirected") true
        (List.mem Flight_recorder.Redirect_read actions);
      let trace =
        Trace_export.to_json ~cycles_per_second:Cost.cycles_per_second
          (Flight_recorder.records r)
      in
      let instants =
        match Obs_json.member "traceEvents" trace with
        | Some (`List evs) ->
          List.filter (fun e -> Obs_json.member "cat" e = Some (`String "respond")) evs
        | _ -> []
      in
      Alcotest.(check int) (label ^ ": an instant per response") (List.length actions)
        (List.length instants);
      Alcotest.(check bool) (label ^ ": untagged") true
        (List.for_all
           (fun l -> Obs_json.member "schema" (Result.get_ok (Obs_json.of_string l)) = None)
           lines))
    [ (Config.csod_default, 1); (Config.csod_default, 3);
      (Config.asan_min_redzone, 1); (Config.asan_min_redzone, 3) ]

(* The stream reports the probability the decision used: the first object
   is installed at start-up, with probability 1, not the halved
   probability its context holds afterwards. *)
let test_startup_decision_streamed () =
  let _, lines = Lazy.force lifecycle_stream in
  match List.find_opt (fun l -> event_name l = "decision") lines with
  | None -> Alcotest.fail "no decision streamed"
  | Some line -> (
    match Obs_json.of_string line with
    | Ok j ->
      Alcotest.(check (option (float 0.0))) "prob 1.0" (Some 1.0)
        (Option.bind (Obs_json.member "prob" j) Obs_json.to_float);
      Alcotest.(check bool) "startup true" true
        (Obs_json.member "startup" j = Some (`Bool true))
    | Error msg -> Alcotest.fail msg)

(* ---------- JSON export ---------- *)

let test_obs_json () =
  Alcotest.(check string) "escaping and nesting"
    "{\"s\":\"a\\\"b\\n\",\"l\":[1,true,null],\"f\":0.5}"
    (Obs_json.to_string
       (`Assoc
         [ ("s", `String "a\"b\n"); ("l", `List [ `Int 1; `Bool true; `Null ]);
           ("f", `Float 0.5) ]));
  Alcotest.(check string) "non-finite floats become null" "[null,null]"
    (Obs_json.to_string (`List [ `Float nan; `Float infinity ]))

let test_telemetry_json () =
  let m = Machine.create ~seed:1 () in
  Machine.work_as m Profiler.Wmu_install 120;
  Metrics.incr (Metrics.counter_named (Machine.registry m) "wmu.installs");
  let s =
    Telemetry.json_string (Machine.telemetry m)
      ~total_cycles:(Clock.cycles (Machine.clock m))
  in
  List.iter
    (fun needle ->
      let nl = String.length needle in
      let rec go i =
        i + nl <= String.length s && (String.sub s i nl = needle || go (i + 1))
      in
      Alcotest.(check bool) (Printf.sprintf "contains %s" needle) true (go 0))
    [ "\"total_cycles\":120"; "\"wmu.installs\":1"; "\"wmu.install\":120" ]

(* ---------- The stream is flushed when recording ends ---------- *)

(* The channel stays open: only the flush at the end of each recording can
   make its lines visible. *)
let with_stream_file f =
  let file = Filename.temp_file "csod_stream" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          f oc (fun () -> In_channel.with_open_text file In_channel.input_all)))

let first_recording oc =
  Flight_recorder.with_recorder (Flight_recorder.create ~capacity:4 ~stream:oc ())
    (fun () ->
      Flight_recorder.free ~at:1 ~addr:64;
      Flight_recorder.stream_event "e1" [ ("n", `Int 1) ])

let first_lines =
  {|{"event":"free","seq":0,"at":1,"addr":64}|} ^ "\n" ^ {|{"event":"e1","n":1}|} ^ "\n"

let test_sink_flush_on_uninstall () =
  with_stream_file (fun oc on_disk ->
      first_recording oc;
      Alcotest.(check string) "recording's end flushed its lines" first_lines
        (on_disk ()))

(* The scoped install ([with_recorder]) flushes also when the recording ends
   in an exception.  Two recorders in turn share the channel, as --runs does. *)
let test_with_sink_flushes () =
  with_stream_file (fun oc on_disk ->
      first_recording oc;
      (match
         Flight_recorder.with_recorder
           (Flight_recorder.create ~capacity:4 ~stream:oc ())
           (fun () ->
             Flight_recorder.stream_event "a" [];
             Flight_recorder.stream_event "b" [ ("x", `Bool true) ];
             failwith "killed")
       with
      | () -> Alcotest.fail "the callback raised"
      | exception Failure _ -> ());
      Alcotest.(check string) "flushed through an exception too"
        (first_lines ^ {|{"event":"a"}|} ^ "\n" ^ {|{"event":"b","x":true}|} ^ "\n")
        (on_disk ()))

(* ---------- Histogram percentiles ---------- *)

let test_histogram_percentiles () =
  let reg = Metrics.create () in
  let h = Metrics.histogram_named reg ~bounds:[| 10; 20; 30 |] "h" in
  Alcotest.(check int) "empty histogram" 0 (Metrics.percentile h 0.5);
  List.iter (Metrics.observe h) [ 1; 2; 3; 4; 5; 6; 7; 8; 25 ];
  (* 9 observations: the 5th sits in the <=10 bucket, the 9th in <=30. *)
  Alcotest.(check int) "p50" 10 (Metrics.percentile h 0.5);
  Alcotest.(check int) "p90" 30 (Metrics.percentile h 0.9);
  Alcotest.(check int) "p0 is the first occupied bucket" 10
    (Metrics.percentile h 0.0);
  Metrics.observe h 1_000_000;
  (* The unbounded overflow bucket saturates to the largest finite bound. *)
  Alcotest.(check int) "overflow saturates" 30 (Metrics.percentile h 0.99);
  Alcotest.check_raises "q outside [0, 1]"
    (Invalid_argument "Metrics.percentile: q outside [0, 1]") (fun () ->
      ignore (Metrics.percentile h 1.5))

let test_histogram_json_has_percentiles () =
  let reg = Metrics.create () in
  let h = Metrics.histogram_named reg ~bounds:[| 10; 20 |] "sizes" in
  List.iter (Metrics.observe h) [ 5; 15; 15 ];
  let s = Obs_json.to_string (Metrics.to_json reg) in
  let contains needle =
    let nl = String.length needle in
    let rec go i =
      i + nl <= String.length s && (String.sub s i nl = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" needle) true
        (contains needle))
    [ "\"p50\":20"; "\"p90\":20"; "\"p99\":20" ]

(* ---------- Lifecycle events stream with their schema ---------- *)

(* Field names and JSON types every lifecycle kind streams with, after
   ["event"], ["seq"] and ["at"].  The match is exhaustive, so a new
   [Flight_recorder.kind] without a schema entry does not compile.  JSON
   has one number type: a float field may print without a fraction. *)
let lifecycle_schema : Flight_recorder.kind -> string * (string * _) list =
  function
  | Alloc _ ->
    ( "alloc",
      [ ("index", `Int); ("addr", `Int); ("size", `Int); ("ctx", `Int);
        ("site", `Int); ("stack_offset", `Int) ] )
  | Decision _ ->
    ( "decision",
      [ ("addr", `Int); ("ctx", `Int); ("prob", `Num); ("coin", `Bool);
        ("watched", `Bool); ("startup", `Bool) ] )
  | Watch _ -> ("watch", [ ("addr", `Int); ("ctx", `Int) ])
  | Replace _ ->
    ( "replace",
      [ ("victim", `Int); ("victim_ctx", `Int); ("by", `Int); ("by_ctx", `Int) ]
    )
  | Unwatch_free _ -> ("unwatch_free", [ ("addr", `Int) ])
  | Free _ -> ("free", [ ("addr", `Int) ])
  | Trap _ -> ("trap", [ ("addr", `Int); ("access", `String); ("tid", `Int) ])
  | Canary_check _ -> ("canary_check", [ ("addr", `Int); ("ok", `Bool) ])
  | Detection _ ->
    ("detection", [ ("addr", `Int); ("ctx", `Int); ("source", `String) ])
  | Prob _ ->
    ( "prob",
      [ ("ctx", `Int); ("cause", `String); ("from", `Num); ("to", `Num) ] )
  | Phase _ ->
    ("phase", [ ("phase", `String); ("start", `Int); ("stop", `Int) ])
  | Fault _ -> ("fault", [ ("point", `String) ])
  | Respond _ ->
    ( "respond",
      [ ("action", `String); ("source", `String); ("site", `Int);
        ("stack_offset", `Int); ("obj", `Int); ("addr", `Int); ("len", `Int) ] )

let json_type : Obs_json.t -> _ = function
  | `Int _ -> `Int
  | `Float _ -> `Num
  | `Bool _ -> `Bool
  | `String _ -> `String
  | _ -> `Other

let test_lifecycle_event_schema () =
  let r, (), text =
    recorded_stream ~capacity:16 (fun () ->
          Flight_recorder.alloc ~at:1 ~addr:0x40 ~size:16 ~ctx:1 ~site:3 ~off:0;
          Flight_recorder.decision ~at:2 ~addr:0x40 ~ctx:1 ~prob:0.125
            ~coin:true ~watched:true ~startup:false;
          Flight_recorder.watch ~at:3 ~addr:0x40 ~ctx:1;
          Flight_recorder.replace ~at:4 ~victim:0x40 ~victim_ctx:1 ~by:0x80
            ~by_ctx:2;
          Flight_recorder.unwatch_free ~at:5 ~addr:0x80;
          Flight_recorder.free ~at:6 ~addr:0x80;
          Flight_recorder.trap ~at:7 ~addr:0x50 ~access:"read" ~tid:3;
          Flight_recorder.canary_check ~at:8 ~addr:0x40 ~ok:false;
          Flight_recorder.detection ~at:9 ~addr:0x40 ~ctx:1 ~source:"canary-free";
          Flight_recorder.prob ~at:10 ~ctx:1 ~cause:Flight_recorder.Halve_on_watch
            ~from_p:1.0 ~to_p:0.5;
          Flight_recorder.phase ~phase:Profiler.App ~start:0 ~stop:11;
          Flight_recorder.fault ~at:12 ~point:"ebusy";
          Flight_recorder.respond ~at:13 ~action:Flight_recorder.Redirect_write
            ~source:Flight_recorder.Watchpoint ~site:3 ~off:0 ~obj:0x40
            ~addr:0x50 ~len:8)
  in
  let lines = nonempty_lines text in
  let records = Flight_recorder.records r in
  Alcotest.(check int) "one line per hook" (List.length records)
    (List.length lines);
  Alcotest.(check int) "all 13 kinds streamed" 13
    (List.length
       (List.sort_uniq compare
          (List.map (fun r -> fst (lifecycle_schema r.Flight_recorder.kind)) records)));
  List.iter2
    (fun rec_ line ->
      let name, fields = lifecycle_schema rec_.Flight_recorder.kind in
      match Obs_json.of_string line with
      | Ok (`Assoc streamed) ->
        let expected =
          ("event", `String) :: ("seq", `Int) :: ("at", `Int) :: fields
        in
        Alcotest.(check (list string)) (name ^ ": field names")
          (List.map fst expected) (List.map fst streamed);
        Alcotest.(check bool) (name ^ ": event names the kind") true
          (List.assoc "event" streamed = `String name);
        List.iter2
          (fun (fname, ty) (_, v) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s.%s has the schema type" name fname)
              true
              (json_type v = ty || (ty = `Num && json_type v = `Int)))
          expected streamed
      | _ -> Alcotest.failf "%s: not a JSON object: %s" name line)
    records lines

(* ---------- Flight recorder ---------- *)

let test_flight_recorder_ring () =
  Alcotest.(check bool) "inactive by default" false (Flight_recorder.active ());
  let r = Flight_recorder.create ~capacity:3 () in
  (* no recorder installed: hooks are no-ops *)
  Flight_recorder.alloc ~at:0 ~addr:0xdead ~size:8 ~ctx:9 ~site:9 ~off:0;
  Flight_recorder.with_recorder r (fun () ->
      Alcotest.(check bool) "active inside" true (Flight_recorder.active ());
      Flight_recorder.alloc ~at:1 ~addr:0x10 ~size:8 ~ctx:1 ~site:7 ~off:0;
      Flight_recorder.alloc ~at:2 ~addr:0x20 ~size:8 ~ctx:1 ~site:7 ~off:0;
      Flight_recorder.watch ~at:3 ~addr:0x20 ~ctx:1;
      Flight_recorder.free ~at:4 ~addr:0x10);
  Alcotest.(check bool) "restored" false (Flight_recorder.active ());
  Alcotest.(check int) "4 records emitted" 4 (Flight_recorder.recorded r);
  Alcotest.(check int) "1 overwritten" 1 (Flight_recorder.dropped r);
  Alcotest.(check int) "2 allocations numbered" 2 (Flight_recorder.alloc_count r);
  match Flight_recorder.records r with
  | [ a; b; c ] ->
    Alcotest.(check (list int)) "seq monotonic, oldest overwritten" [ 1; 2; 3 ]
      [ a.Flight_recorder.seq; b.Flight_recorder.seq; c.Flight_recorder.seq ];
    (match a.Flight_recorder.kind with
    | Flight_recorder.Alloc al ->
      Alcotest.(check int) "alloc index survives overwrites" 2 al.index
    | _ -> Alcotest.fail "expected the second Alloc record first")
  | recs -> Alcotest.failf "expected 3 records, got %d" (List.length recs)

let test_flight_record_json () =
  let r = Flight_recorder.create ~capacity:4 () in
  Flight_recorder.with_recorder r (fun () ->
      Flight_recorder.decision ~at:5 ~addr:0x30 ~ctx:2 ~prob:0.5 ~coin:true
        ~watched:false ~startup:false);
  match Flight_recorder.records r with
  | [ rec_ ] ->
    Alcotest.(check string) "record JSON shape"
      "{\"kind\":\"decision\",\"seq\":0,\"at\":5,\"addr\":48,\"ctx\":2,\
       \"prob\":0.5,\"coin\":true,\"watched\":false,\"startup\":false}"
      (Obs_json.to_string (Flight_recorder.record_to_json rec_))
  | _ -> Alcotest.fail "expected one record"

let contains s needle =
  let nl = String.length needle in
  let rec go i =
    i + nl <= String.length s && (String.sub s i nl = needle || go (i + 1))
  in
  go 0

(* A capacity above the bound is refused with a message naming the bound,
   before any ring is allocated; a non-positive one is refused too. *)
let test_recorder_capacity_bound () =
  let bound = string_of_int Flight_recorder.max_capacity in
  List.iter
    (fun capacity ->
      match Flight_recorder.create ~capacity () with
      | _ -> Alcotest.failf "capacity %d accepted" capacity
      | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "capacity %d: message names the bound" capacity)
          true
          (contains msg bound))
    [ Flight_recorder.max_capacity + 1; 100_000_000_000; max_int ];
  List.iter
    (fun capacity ->
      match Flight_recorder.create ~capacity () with
      | _ -> Alcotest.failf "capacity %d accepted" capacity
      | exception Invalid_argument _ -> ())
    [ 0; -1; min_int ]

(* The CLI turns an oversized [--flight-recorder=N] into the usage error
   it gives for 0 (exit 124), naming the bound, instead of crashing. *)
let test_cli_recorder_capacity_bound () =
  let err = Filename.temp_file "csod_cli" ".err" in
  let run n =
    let cmd =
      Filename.quote_command "../bin/csod_run.exe" ~stdout:Filename.null
        ~stderr:err
        [ "run"; "heartbleed"; "--seed"; "3"; "--flight-recorder=" ^ n ]
    in
    let code = Sys.command cmd in
    (code, In_channel.with_open_bin err In_channel.input_all)
  in
  List.iter
    (fun n ->
      let code, msg = run n in
      Alcotest.(check int) (n ^ ": usage error") 124 code;
      Alcotest.(check bool) (n ^ ": names the bound") true
        (contains msg (string_of_int Flight_recorder.max_capacity)))
    [ "4611686018427387903"; "100000000000";
      string_of_int (Flight_recorder.max_capacity + 1) ];
  Alcotest.(check int) "0: usage error" 124 (fst (run "0"));
  Sys.remove err

(* With no sink installed, a record is a few stores: 10,000 calls of each
   of the 12 hooks, with arguments computed in the loop, allocate no minor
   word.  One warm-up call per hook interns the strings first. *)
let test_recording_allocates_nothing () =
  let module F = Flight_recorder in
  let r = F.create ~capacity:4096 () in
  let hooks i =
    let p = float_of_int i *. 1e-4 in
    F.alloc ~at:i ~addr:(i * 16) ~size:i ~ctx:i ~site:i ~off:i;
    F.decision ~at:i ~addr:i ~ctx:i ~prob:p ~coin:(i land 1 = 0)
      ~watched:(i land 2 = 0) ~startup:false;
    F.watch ~at:i ~addr:i ~ctx:i;
    F.replace ~at:i ~victim:i ~victim_ctx:i ~by:(i + 1) ~by_ctx:i;
    F.unwatch_free ~at:i ~addr:i;
    F.free ~at:i ~addr:i;
    F.trap ~at:i ~addr:i ~access:(if i land 1 = 0 then "read" else "write")
      ~tid:i;
    F.canary_check ~at:i ~addr:i ~ok:(i land 1 = 0);
    F.detection ~at:i ~addr:i ~ctx:i ~source:"watchpoint";
    F.prob ~at:i ~ctx:i ~cause:F.Decay ~from_p:p ~to_p:(p *. 0.5);
    F.phase ~phase:Profiler.Smu_lookup ~start:i ~stop:(i + 1);
    F.fault ~at:i ~point:"ebusy"
  in
  F.with_recorder r (fun () ->
      hooks 0;
      let before = Gc.minor_words () in
      for i = 1 to 10_000 do
        hooks i
      done;
      let words = Gc.minor_words () -. before in
      if Sys.backend_type = Sys.Native then
        Alcotest.(check (float 0.0)) "minor words over 120,000 records" 0.0
          words);
  Alcotest.(check int) "every call recorded" (12 * 10_001) (F.recorded r)

(* ...and neither do their call sites: a warm execution under a recorder
   allocates what it allocates without one, bar [with_recorder]'s few
   words. *)
let test_recorded_execution_allocates_nothing_more () =
  let app = Option.get (Buggy_app.by_name "Heartbleed") in
  let run () =
    ignore (Execution.run ~app ~config:Config.csod_default ~seed:3 ())
  in
  let r = Flight_recorder.create () in
  let recorded () = Flight_recorder.with_recorder r run in
  let words f =
    f ();
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let bare = words run and with_recorder = words recorded in
  Alcotest.(check bool) "records were made" true (Flight_recorder.recorded r > 0);
  if Sys.backend_type = Sys.Native then
    Alcotest.(check bool)
      (Printf.sprintf "recorder adds %.0f minor words (<= 64)" (with_recorder -. bare))
      true
      (with_recorder -. bare <= 64.)

(* Records compare with floats by their bits, so NaN payloads and [-0.]
   are checked exactly. *)
let canonical (r : Flight_recorder.record) =
  let bits = Int64.bits_of_float in
  ( r.seq,
    r.at,
    match r.kind with
    | Flight_recorder.Decision d ->
      `Decision (d.addr, d.ctx, bits d.prob, d.coin, d.watched, d.startup)
    | Flight_recorder.Prob p ->
      `Prob (p.ctx, p.cause, bits p.from_p, bits p.to_p)
    | k -> `Kind k )

let test_recorder_round_trip () =
  let module F = Flight_recorder in
  let ints = [ min_int; max_int; -1; 0; -123_456_789; max_int - 1 ] in
  let floats =
    [ Float.nan; Int64.float_of_bits 0x7ff0_0000_0000_0123L;
      Int64.float_of_bits 0xfff8_0000_0000_0042L; -0.; 0.; infinity;
      neg_infinity; Int64.float_of_bits 1L; 4.9e-310; 0.125 ]
  in
  let causes =
    [ F.Decay; F.Halve_on_watch; F.Throttle; F.Revive; F.Pin; F.Degrade ]
  in
  let bools = [ (false, false, false); (true, false, true);
                (false, true, false); (true, true, true) ] in
  let expected = ref [] in
  let n = ref 0 in
  (* [emit] records at the next of [ints]; [kind_at] is what it should
     read back as, given that [at]. *)
  let push_at kind_at emit =
    let at = List.nth ints (!n mod List.length ints) in
    incr n;
    emit at;
    expected := (at, kind_at at) :: !expected
  in
  let push kind emit = push_at (fun _ -> kind) emit in
  let r = F.create ~capacity:1024 () in
  F.with_recorder r (fun () ->
      List.iteri
        (fun k v ->
          let w = List.nth ints ((k + 1) mod List.length ints) in
          push
            (F.Alloc { index = k + 1; addr = v; size = w; ctx = -v; site = v;
                       off = w })
            (fun at -> F.alloc ~at ~addr:v ~size:w ~ctx:(-v) ~site:v ~off:w);
          push (F.Watch { addr = v; ctx = w }) (fun at -> F.watch ~at ~addr:v ~ctx:w);
          push
            (F.Replace { victim = v; victim_ctx = w; by = w; by_ctx = v })
            (fun at -> F.replace ~at ~victim:v ~victim_ctx:w ~by:w ~by_ctx:v);
          push (F.Unwatch_free { addr = v }) (fun at -> F.unwatch_free ~at ~addr:v);
          push (F.Free { addr = v }) (fun at -> F.free ~at ~addr:v);
          List.iter
            (fun access ->
              push (F.Trap { addr = v; access; tid = w })
                (fun at -> F.trap ~at ~addr:v ~access ~tid:w))
            [ "read"; "write" ];
          List.iter
            (fun ok ->
              push (F.Canary_check { addr = v; ok })
                (fun at -> F.canary_check ~at ~addr:v ~ok))
            [ true; false ])
        ints;
      List.iteri
        (fun k prob ->
          let coin, watched, startup = List.nth bools (k mod 4) in
          let v = List.nth ints (k mod List.length ints) in
          push
            (F.Decision { addr = v; ctx = -v; prob; coin; watched; startup })
            (fun at ->
              F.decision ~at ~addr:v ~ctx:(-v) ~prob ~coin ~watched ~startup);
          let cause = List.nth causes (k mod List.length causes) in
          let to_p = List.nth floats ((k + 3) mod List.length floats) in
          push
            (F.Prob { ctx = v; cause; from_p = prob; to_p })
            (fun at -> F.prob ~at ~ctx:v ~cause ~from_p:prob ~to_p))
        floats;
      (* Each phase with a start from [ints] and with a short span; then
         spans either side of the largest one coded in the head. *)
      List.iter
        (fun p ->
          let start = List.nth ints (Profiler.index p mod List.length ints) in
          push_at
            (fun stop -> F.Phase { phase = Profiler.name p; start; stop })
            (fun at -> F.phase ~phase:p ~start ~stop:at);
          let span = Profiler.index p + 1 in
          push_at
            (fun stop ->
              F.Phase { phase = Profiler.name p; start = stop - span; stop })
            (fun at -> F.phase ~phase:p ~start:(at - span) ~stop:at))
        Profiler.all;
      List.iter
        (fun span ->
          push_at
            (fun stop ->
              F.Phase { phase = "asan.poison"; start = stop - span; stop })
            (fun at ->
              F.phase ~phase:Profiler.Asan_poison ~start:(at - span) ~stop:at))
        [ (1 lsl 54) - 1; 1 lsl 54; 0; -1; max_int ];
      List.iter
        (fun source ->
          push (F.Detection { addr = -7; ctx = max_int; source })
            (fun at -> F.detection ~at ~addr:(-7) ~ctx:max_int ~source))
        [ "a source never seen before"; "watchpoint"; "a source never seen before" ];
      List.iter
        (fun point -> push (F.Fault { point }) (fun at -> F.fault ~at ~point))
        [ "point-1"; "point-2"; "point-3"; "point-1"; ""; "read" ];
      List.iteri
        (fun k (action, source) ->
          let v = List.nth ints (k mod List.length ints) in
          let w = List.nth ints ((k + 1) mod List.length ints) in
          push
            (F.Respond { action; source; site = v; off = w; obj = -v; addr = w; len = v })
            (fun at ->
              F.respond ~at ~action ~source ~site:v ~off:w ~obj:(-v) ~addr:w ~len:v))
        (List.concat_map
           (fun action ->
             List.map (fun source -> (action, source))
               [ F.Watchpoint; F.Asan_shadow; F.Canary ])
           [ F.Redirect_read; F.Redirect_write; F.Escape; F.Patch ]));
  let expected =
    List.rev !expected
    |> List.mapi (fun seq (at, kind) -> canonical { F.seq; at; kind })
  in
  Alcotest.(check int) "nothing dropped" 0 (F.dropped r);
  Alcotest.(check bool) "every kind and value reads back exactly" true
    (expected = List.map canonical (F.records r));
  Alcotest.(check int) "detections counted" 3 (F.detection_count r)

(* One real execution at several capacities: each ring holds exactly the
   last [capacity] records of an unwrapped one, and the streamed lines do
   not depend on the capacity at all. *)
let test_ring_suffix_real () =
  let run app cap =
    let path = Filename.temp_file "csod_stream" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let r =
          Out_channel.with_open_bin path (fun oc ->
              let r = Flight_recorder.create ~capacity:cap ~stream:oc () in
              ignore
                (Flight_recorder.with_recorder r (fun () ->
                     Execution.run ~app ~config:Config.csod_default ~seed:11 ()));
              r)
        in
        let lines =
          In_channel.with_open_bin path
            (In_channel.fold_lines (fun n _ -> n + 1) 0)
        in
        (r, lines, Digest.file path))
  in
  List.iter
    (fun name ->
      let app = Option.get (Buggy_app.by_name name) in
      let full, lines, digest = run app (1 lsl 20) in
      Alcotest.(check int) (name ^ ": unwrapped") 0 (Flight_recorder.dropped full);
      Alcotest.(check int) (name ^ ": a line per record") lines
        (Flight_recorder.recorded full);
      let all = Array.of_list (Flight_recorder.records full) in
      let n = Array.length all in
      List.iter
        (fun cap ->
          let r, lines', digest' = run app cap in
          let label = Printf.sprintf "%s at capacity %d" name cap in
          Alcotest.(check int) (label ^ ": same records emitted") n
            (Flight_recorder.recorded r);
          Alcotest.(check bool) (label ^ ": same stream") true
            (lines = lines' && Digest.equal digest digest');
          let kept = min cap n in
          Alcotest.(check bool) (label ^ ": the last records of the unwrapped ring")
            true
            (List.map canonical (Array.to_list (Array.sub all (n - kept) kept))
            = List.map canonical (Flight_recorder.records r)))
        [ 1; 3; 1000; 65_536 ])
    [ "MySQL"; "Libdwarf" ]

(* Recording must not perturb the execution: outcome-level check over a
   few seeds... *)
let test_recorder_does_not_perturb () =
  let app = Option.get (Buggy_app.by_name "Heartbleed") in
  let bare seed = Execution.run ~app ~config:Config.csod_default ~seed () in
  let recorded seed =
    Flight_recorder.with_recorder (Flight_recorder.create ()) (fun () ->
        Execution.run ~app ~config:Config.csod_default ~seed ())
  in
  List.iter
    (fun seed ->
      let a = bare seed and b = recorded seed in
      Alcotest.(check bool) "same detection" a.Execution.detected
        b.Execution.detected;
      Alcotest.(check int) "same cycles" a.Execution.cycles b.Execution.cycles;
      Alcotest.(check int) "same report count"
        (List.length a.Execution.reports)
        (List.length b.Execution.reports);
      Alcotest.(check string) "same program output" a.Execution.output
        b.Execution.output)
    [ 1; 2; 3 ]

(* ...and PRNG-stream-level: after identical operation sequences the next
   draw from the machine's root generator is identical, proving the
   recorder drew no randomness and advanced no clock. *)
let drive_runtime recorder =
  let machine = Machine.create ~seed:5 () in
  let heap = Heap.create machine in
  let rt = Runtime.create ~machine ~heap () in
  let tool = Runtime.tool rt in
  let body () =
    let ptrs =
      List.init 40 (fun i ->
          tool.Tool.malloc
            ~size:(16 + (i mod 5 * 8))
            ~ctx:
              (Alloc_ctx.synthetic ~callsite:(1 + (i mod 7))
                 ~stack_offset:(i mod 3) ()))
    in
    List.iteri (fun i p -> if i mod 2 = 0 then tool.Tool.free ~ptr:p) ptrs;
    Runtime.finish rt
  in
  (match recorder with
  | Some r -> Flight_recorder.with_recorder r body
  | None -> body ());
  (Prng.bits64 (Machine.rng machine), Clock.cycles (Machine.clock machine))

let test_recorder_prng_stream () =
  let bare_draw, bare_cycles = drive_runtime None in
  let rec_draw, rec_cycles =
    drive_runtime (Some (Flight_recorder.create ~capacity:1024 ()))
  in
  Alcotest.(check int64) "identical next PRNG draw" bare_draw rec_draw;
  Alcotest.(check int) "identical clock" bare_cycles rec_cycles

(* ---------- Chrome trace export ---------- *)

let test_trace_export_structure () =
  let r = Flight_recorder.create ~capacity:64 () in
  Flight_recorder.with_recorder r (fun () ->
      Flight_recorder.phase ~phase:Profiler.App ~start:0 ~stop:100;
      Flight_recorder.alloc ~at:10 ~addr:0x40 ~size:16 ~ctx:1 ~site:3 ~off:0;
      Flight_recorder.decision ~at:11 ~addr:0x40 ~ctx:1 ~prob:0.5 ~coin:true
        ~watched:true ~startup:false;
      Flight_recorder.watch ~at:12 ~addr:0x40 ~ctx:1;
      Flight_recorder.trap ~at:20 ~addr:0x40 ~access:"read" ~tid:0;
      Flight_recorder.prob ~at:21 ~ctx:1 ~cause:Flight_recorder.Decay
        ~from_p:0.5 ~to_p:0.4;
      Flight_recorder.detection ~at:22 ~addr:0x40 ~ctx:1 ~source:"watchpoint";
      Flight_recorder.free ~at:30 ~addr:0x40);
  match
    Trace_export.to_json ~cycles_per_second:1_000_000
      (Flight_recorder.records r)
  with
  | `Assoc top ->
    Alcotest.(check bool) "displayTimeUnit is ms" true
      (List.assoc_opt "displayTimeUnit" top = Some (`String "ms"));
    (match List.assoc_opt "traceEvents" top with
    | Some (`List evs) ->
      let phs =
        List.filter_map
          (function
            | `Assoc f -> (
              Alcotest.(check bool) "every event has a name" true
                (List.mem_assoc "name" f);
              Alcotest.(check bool) "every event has a pid" true
                (List.mem_assoc "pid" f);
              match List.assoc_opt "ph" f with
              | Some (`String p) -> Some p
              | _ -> Alcotest.fail "event without ph")
            | _ -> Alcotest.fail "trace event is not an object")
          evs
      in
      (* One watched+trapped+detected object and one phase slice exercise
         every event phase the exporter can produce. *)
      List.iter
        (fun want ->
          Alcotest.(check bool) (Printf.sprintf "has a %S event" want) true
            (List.mem want phs))
        [ "M"; "X"; "C"; "b"; "n"; "e"; "i" ]
    | _ -> Alcotest.fail "traceEvents missing or not a list")
  | _ -> Alcotest.fail "top level is not an object"

(* ---------- JSON parser ---------- *)

let test_obs_json_parse () =
  let doc : Obs_json.t =
    `Assoc
      [ ("s", `String "a \"quoted\" line\nwith\ttabs and \\ unicode \xc3\xa9");
        ("i", `Int (-42)); ("f", `Float 0.25); ("t", `Bool true);
        ("n", `Null);
        ("l", `List [ `Int 1; `Float 1.5; `String ""; `Assoc [] ]);
        ("nested", `Assoc [ ("k", `List [ `Null; `Bool false ]) ]) ]
  in
  (match Obs_json.of_string (Obs_json.to_string doc) with
  | Ok parsed -> Alcotest.(check bool) "round-trips" true (parsed = doc)
  | Error msg -> Alcotest.fail ("round-trip failed: " ^ msg));
  (* Escapes, including \u, decode to the bytes the encoder would emit. *)
  (match Obs_json.of_string {|{"u": "Aé", "sci": 1e3}|} with
  | Ok j ->
    Alcotest.(check bool) "unicode escape" true
      (Obs_json.member "u" j = Some (`String "A\xc3\xa9"));
    Alcotest.(check bool) "exponent is a float" true
      (Obs_json.member "sci" j = Some (`Float 1000.0))
  | Error msg -> Alcotest.fail msg);
  (* Integral tokens stay ints; accessors coerce where lossless. *)
  (match Obs_json.of_string "[7, 7.0]" with
  | Ok (`List [ a; b ]) ->
    Alcotest.(check bool) "7 parses as Int" true (a = `Int 7);
    Alcotest.(check (option int)) "to_int accepts integral float" (Some 7)
      (Obs_json.to_int b);
    Alcotest.(check (option (float 0.0))) "to_float accepts int" (Some 7.0)
      (Obs_json.to_float a)
  | _ -> Alcotest.fail "list parse failed");
  (* Out-of-range floats have no int: [int_of_float] would fabricate one. *)
  (match Obs_json.of_string {|{"epoch": 1e30, "n": -9.3e18, "lo": -4611686018427387904.0, "hi": 4611686018427387904.0}|} with
  | Ok j ->
    List.iter
      (fun (field, want) ->
        Alcotest.(check (option int))
          (Printf.sprintf "to_int %s" field)
          want
          (Option.bind (Obs_json.member field j) Obs_json.to_int))
      [ ("epoch", None); ("n", None); ("lo", Some min_int); ("hi", None) ]
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" bad)
        true
        (match Obs_json.of_string bad with Ok _ -> false | Error _ -> true))
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; ""; "nan" ]

(* ---------- At-exit flush ---------- *)

(* A process that [exit]s mid-recording (a CLI error path, a harness
   deadline) skips the flush at the end of the recording; the stdlib's
   [exit] flushes every open channel, which completes the stream.  A
   subprocess shows it: it leaves a line torn on disk, calls [exit] from
   inside the recording, and its file must end in whole lines. *)
let test_flush_installed_completes_stream () =
  let file = Filename.temp_file "csod_stream" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let exe = Filename.concat (Sys.getcwd ()) "exit_mid_stream.exe" in
      Alcotest.(check int) "the subprocess tore a line, then exited 0" 0
        (Sys.command (Filename.quote_command exe [ file ]));
      let full = In_channel.with_open_bin file In_channel.input_all in
      Alcotest.(check bool) "the stream ends in a newline" true
        (full <> "" && full.[String.length full - 1] = '\n');
      let lines = nonempty_lines full in
      Alcotest.(check (list string)) "every line, whole"
        [ "first"; "big"; "free" ] (List.map event_name lines))

(* ---------- Snapshot sequencing across a merge ---------- *)

let test_snapshot_seq_across_merge () =
  let dst = Telemetry.create () in
  Telemetry.set_snapshot_interval dst ~cycles:100;
  let src = Telemetry.create () in
  Telemetry.set_snapshot_interval src ~cycles:10;
  let _, (), text =
    recorded_stream (fun () ->
      Telemetry.tick dst ~now:250;
      (* boundaries 100, 200 -> seq 1, 2 *)
      Telemetry.tick src ~now:30;
      (* src's own stream: seq 1..3 *)
      Telemetry.merge_into ~dst ~src;
      (* dst keeps its own cadence (interval 100, next boundary 300 — not
         src's interval 10), but the union's snapshot count advances the
         sequence: the next snapshot is seq 6, not 3. *)
      Telemetry.tick dst ~now:350)
  in
  Alcotest.(check int) "merged snapshot count" 6 (Telemetry.snapshot_count dst);
  let snaps =
    nonempty_lines text
    |> List.filter_map (fun line ->
           match Obs_json.of_string line with
           | Ok j when Obs_json.member "event" j = Some (`String "snapshot") ->
             Some
               ( Option.get (Option.bind (Obs_json.member "seq" j) Obs_json.to_int),
                 Option.get
                   (Option.bind (Obs_json.member "cycles" j) Obs_json.to_int) )
           | _ -> None)
  in
  Alcotest.(check (list (pair int int)))
    "seq continues after the union, cadence unmerged"
    [ (1, 100); (2, 200); (1, 10); (2, 20); (3, 30); (6, 300) ]
    snaps

(* ---------- Health records ---------- *)

let health_sample : Health.t =
  { Health.epoch = 3; arrivals = 32; detections = 4; degraded = 1;
    worker_crashes = 2;
    faults = [ ("runtime.degraded", 1); ("trap.dropped", 5) ];
    snapshots = 12; cycles = 4_000_000; cycle_skew = 1.5; store_contexts = 2;
    patched = 1;
    wall =
      Some
        { epoch_seconds = 0.125; merge_seconds = 0.003;
          observer_seconds = 0.0005; straggler_skew = 1.75;
          domains =
            [ { Health.slot = 0; executed = 17; busy_seconds = 0.061 };
              { Health.slot = 1; executed = 15; busy_seconds = 0.059 } ] } }

let test_health_roundtrip () =
  let line = Obs_json.to_string (Health.line health_sample) in
  (match Obs_json.of_string line with
  | Ok j -> (
    Alcotest.(check bool) "schema tagged" true
      (Obs_json.member "schema" j = Some (`String Health.schema));
    match Schema.decode Health.spec j with
    | Ok s -> Alcotest.(check bool) "round-trips" true (s = health_sample)
    | Error e -> Alcotest.fail ("of_json rejected its own encoding: " ^ e))
  | Error msg -> Alcotest.fail ("health line does not parse: " ^ msg));
  (* Without its wall, the record is a history body: the same table, the
     same bytes less the wall member. *)
  let body = { health_sample with wall = None } in
  Alcotest.(check bool) "a body round-trips" true
    (Health.of_json (Health.to_json body) = Ok body);
  Alcotest.(check bool) "a body has no wall member" true
    (Obs_json.member "wall" (Health.to_json body) = None);
  (* Foreign records are rejected, not mis-parsed. *)
  Alcotest.(check bool) "wrong schema rejected" true
    (Result.is_error
       (Schema.decode Health.spec (`Assoc [ ("schema", `String "csod.bench/1") ])));
  Alcotest.(check bool) "missing field rejected" true
    (Result.is_error
       (Schema.decode Health.spec
          (`Assoc [ ("schema", `String Health.schema); ("epoch", `Int 1) ])))

let test_health_skew_and_render () =
  Alcotest.(check (float 1e-9)) "skew of empty" 1.0 (Health.straggler_skew []);
  Alcotest.(check (float 1e-9)) "skew of one worker" 1.0
    (Health.straggler_skew [ 4.0 ]);
  Alcotest.(check (float 1e-9)) "idle workers don't vote" 3.0
    (Health.straggler_skew [ 0.0; 1.0; 1.0; 3.0 ]);
  let plain = Health.render ~color:false [ health_sample ] in
  Alcotest.(check bool) "renders a headline" true
    (String.length plain > 0
    && String.starts_with ~prefix:"CSOD FLEET" plain);
  (* The headline is the fold: users arrived, and the CDF over them. *)
  let second = { health_sample with epoch = 4; arrivals = 8; detections = 0 } in
  Alcotest.(check bool) "headline: arrived and the CDF over arrivals" true
    (String.starts_with
       ~prefix:"CSOD FLEET  epoch 4   arrived 40   detections 4 (CDF 10.0%)"
       (Health.render ~color:false [ health_sample; second ]));
  Alcotest.(check bool) "no escape codes without color" true
    (not (String.contains plain '\x1b'));
  Alcotest.(check bool) "colored output has escape codes" true
    (String.contains (Health.render ~color:true [ health_sample ]) '\x1b');
  Alcotest.(check bool) "empty stream renders a placeholder" true
    (String.length (Health.render ~color:false []) > 0)

(* The serve history format stores every rate and skew as a JSON float, so
   the parser's float edges are load-bearing: non-finite tokens must be
   rejected (JSON has no nan/inf), and exponent forms must survive a
   to_string/of_string cycle at the encoder's %.12g precision. *)
let test_obs_json_float_edges () =
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" bad)
        true
        (match Obs_json.of_string bad with Ok _ -> false | Error _ -> true))
    [ "nan"; "inf"; "-inf"; "NaN"; "Infinity"; "-Infinity";
      "{\"x\": nan}"; "[inf]"; "1e"; "1e+"; "0x10"; "1e999e";
      (* overflowing exponents must not smuggle in an infinity *)
      "1e999"; "-1e999"; "[2e308]" ];
  (* Exponent forms round-trip through the encoder: re-encoding the parse
     of an encoded float reproduces the same document bytes. *)
  List.iter
    (fun x ->
      let doc = Obs_json.to_string (`List [ `Float x ]) in
      match Obs_json.of_string doc with
      | Ok j ->
        Alcotest.(check string)
          (Printf.sprintf "%.17g round-trip stable" x)
          doc
          (Obs_json.to_string j)
      | Error msg ->
        Alcotest.fail (Printf.sprintf "%.17g failed to parse: %s" x msg))
    [ 2.5e-7; 1e3; 1.0; 0.1; -0.25; 6.02214076e23; 1e300; 1e-300;
      4.9406564584124654e-324; 1.7976931348623157e308; 3.14159265358979 ];
  (* Literal exponent spellings parse to the same value however written. *)
  match Obs_json.of_string "[1e3, 1E3, 10e2, 1000.0, 0.1e4]" with
  | Ok (`List vals) ->
    List.iter
      (fun v ->
        Alcotest.(check (option (float 0.0))) "exponent spelling" (Some 1000.0)
          (Obs_json.to_float v))
      vals
  | _ -> Alcotest.fail "exponent list failed to parse"

(* An epoch where nobody ran: the drained-fleet steady state that serve
   produces once the population is exhausted.  Every derived statistic
   must stay finite and the record must survive its own encoding. *)
let test_health_zero_executed () =
  Alcotest.(check (float 1e-9)) "skew of all-idle workers" 1.0
    (Health.straggler_skew [ 0.0; 0.0; 0.0 ]);
  let idle =
    { Health.epoch = 9; arrivals = 0; detections = 0; degraded = 0;
      worker_crashes = 0; faults = []; snapshots = 0; cycles = 0;
      cycle_skew = 1.0; store_contexts = 2; patched = 1;
      wall =
        Some
          { epoch_seconds = 0.0001; merge_seconds = 0.0; observer_seconds = 0.0;
            straggler_skew = 1.0;
            domains =
              [ { Health.slot = 0; executed = 0; busy_seconds = 0.0 };
                { Health.slot = 1; executed = 0; busy_seconds = 0.0 } ] } }
  in
  (match Obs_json.of_string (Obs_json.to_string (Health.line idle)) with
  | Ok j -> (
    match Schema.decode Health.spec j with
    | Ok s -> Alcotest.(check bool) "idle epoch round-trips" true (s = idle)
    | Error e -> Alcotest.fail ("of_json rejected an idle epoch: " ^ e))
  | Error msg -> Alcotest.fail ("idle epoch does not parse: " ^ msg));
  let plain = Health.render ~color:false [ health_sample; idle ] in
  Alcotest.(check bool) "idle epoch renders" true
    (String.starts_with ~prefix:"CSOD FLEET" plain);
  (* A stream where nobody has arrived must not divide by zero anywhere. *)
  Alcotest.(check bool) "empty fleet renders a zero CDF" true
    (String.starts_with
       ~prefix:"CSOD FLEET  epoch 9   arrived 0   detections 0 (CDF  0.0%)"
       (Health.render ~color:false [ idle ]))

(* ---------- Fleet span export ---------- *)

let test_fleet_span_export () =
  let spans =
    [ { Trace_export.track = 0; name = "user #1"; start_s = 0.0;
        stop_s = 0.010; args = [ ("epoch", `Int 0) ] };
      { Trace_export.track = 1; name = "user #2"; start_s = 0.002;
        stop_s = 0.012; args = [] };
      { Trace_export.track = 2; name = "epoch 0 merge"; start_s = 0.012;
        stop_s = 0.013; args = [] } ]
  in
  match Trace_export.fleet_spans_to_json ~domains:2 spans with
  | `Assoc top -> (
    match List.assoc_opt "traceEvents" top with
    | Some (`List evs) ->
      let by_ph p =
        List.filter
          (function
            | `Assoc f -> List.assoc_opt "ph" f = Some (`String p)
            | _ -> false)
          evs
      in
      Alcotest.(check int) "one B per span" 3 (List.length (by_ph "B"));
      Alcotest.(check int) "one E per span" 3 (List.length (by_ph "E"));
      (* process_name + thread_name for domains 0, 1 and the barrier *)
      Alcotest.(check int) "metadata names the tracks" 4
        (List.length (by_ph "M"));
      List.iter
        (function
          | `Assoc f ->
            Alcotest.(check bool) "all events on the fleet pid" true
              (List.assoc_opt "pid" f = Some (`Int 2))
          | _ -> ())
        evs;
      let ts =
        List.filter_map
          (function
            | `Assoc f
              when List.assoc_opt "ph" f = Some (`String "B")
                   || List.assoc_opt "ph" f = Some (`String "E") -> (
              match List.assoc_opt "ts" f with
              | Some (`Float t) -> Some t
              | _ -> None)
            | _ -> None)
          evs
      in
      Alcotest.(check bool) "timestamps sorted for nesting" true
        (ts = List.sort compare ts)
    | _ -> Alcotest.fail "traceEvents missing")
  | _ -> Alcotest.fail "top level is not an object"

(* ---------- Schema registry ---------- *)

let with_field k v (j : Obs_json.t) : Obs_json.t =
  match j with
  | `Assoc kvs ->
    `Assoc (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) kvs)
  | j -> j

let without_field k (j : Obs_json.t) : Obs_json.t =
  match j with `Assoc kvs -> `Assoc (List.remove_assoc k kvs) | j -> j

(* [top] and [validate] judge a health record by the same decoder: it
   refuses to invent a fault tally, an integer or a wall. *)
let test_health_decoder_refuses () =
  let j = Health.line health_sample in
  let wall = Option.get (Obs_json.member "wall" j) in
  List.iter
    (fun (what, bad) ->
      Alcotest.(check bool) what true (Result.is_error (Schema.decode Health.spec bad)))
    [ ("missing faults", without_field "faults" j);
      ("non-int fault count",
       with_field "faults" (`Assoc [ ("ebusy", `String "lots") ]) j);
      ("float epoch", with_field "epoch" (`Float 3.0) j);
      ("negative count", with_field "degraded" (`Int (-1)) j);
      ("more detections than arrivals",
       with_field "detections" (`Int (health_sample.Health.arrivals + 1)) j);
      ("missing cycles", without_field "cycles" j);
      ("wall not an object", with_field "wall" (`Int 1) j);
      ("wall without domains", with_field "wall" (without_field "domains" wall) j);
      ("malformed domain load",
       with_field "wall" (with_field "domains" (`List [ `Assoc [ ("domain", `Int 0) ] ]) wall) j) ]

let test_schema_kinds () =
  let spec =
    Schema.make "csod.test/1"
      Schema.[ ("n", Int); ("x", Float); ("c", Nullable Object) ]
  in
  let row n x c : Obs_json.t =
    `Assoc [ ("schema", `String "csod.test/1"); ("n", n); ("x", x); ("c", c) ]
  in
  let ok j = Result.is_ok (Schema.conforms spec j) in
  Alcotest.(check bool) "int, int-as-float, null" true
    (ok (row (`Int 1) (`Int 2) `Null));
  Alcotest.(check bool) "nullable takes its kind" true
    (ok (row (`Int 1) (`Float 2.5) (`Assoc [])));
  Alcotest.(check bool) "bool is not an int" false
    (ok (row (`Bool true) (`Int 2) `Null));
  Alcotest.(check bool) "1.0 is not an int" false
    (ok (row (`Float 1.0) (`Int 2) `Null));
  Alcotest.(check bool) "bool is not a float" false
    (ok (row (`Int 1) (`Bool false) `Null));
  Alcotest.(check bool) "nullable still typed" false
    (ok (row (`Int 1) (`Int 2) (`List [])));
  Alcotest.(check bool) "missing field" false
    (ok (without_field "x" (row (`Int 1) (`Int 2) `Null)))

(* Untagged streams (--events): tagged lines are checked by their tag,
   unknown csod.* tags fail, foreign tags pass through. *)
let test_schema_untagged_streams () =
  let v text = Schema.validate Schemas.all text in
  let respond =
    {|{"event":"respond","seq":1,"at":9,"action":"redirect-read","source":"watchpoint","site":4,"stack_offset":8,"obj":56,"addr":64,"len":1}|}
  in
  let good = respond ^ "\n" in
  Alcotest.(check (result int string)) "lifecycle + respond lines" (Ok 2)
    (v ("{\"event\":\"start\",\"seq\":0}\n" ^ good));
  Alcotest.(check bool) "retired respond tag refused" true
    (Result.is_error
       (v ({|{"schema":"csod.respond.event/1","kind":"redirect-read","source":"watchpoint","site":4,"ctx":[4,8],"addr":64,"offset":8,"len":1,"at_sec":0.5}|}
         ^ "\n")));
  Alcotest.(check bool) "unknown csod tag" true
    (Result.is_error (v "{\"schema\":\"csod.nope/1\"}\n"));
  Alcotest.(check (result int string)) "foreign tag" (Ok 1)
    (v "{\"schema\":\"other/1\"}\n");
  Alcotest.(check bool) "unknown --schema" true
    (Result.is_error (Schema.validate Schemas.all ~schema:"csod.nope/1" good))

let test_schema_registry () =
  let names = List.map Schema.name Schemas.all in
  Alcotest.(check int) "thirteen formats" 13 (List.length names);
  Alcotest.(check int) "one spec each" 13
    (List.length (List.sort_uniq compare names))

(* A bench row that does not match its spec is refused before printing. *)
let test_bench_rows_refused () =
  let row =
    [ ("op", `String "read"); ("mode", `String "serial");
      ("iters", `Int 10); ("ns_per_op", `Float 5.0);
      ("ops_per_sec", `Float 2e8) ]
  in
  Alcotest.(check bool) "complete row conforms" true
    (Result.is_ok
       (Schema.conforms Schemas.bench_throughput
          (`Assoc (("schema", `String "csod.bench.throughput/2") :: row))));
  List.iter
    (fun (what, fields) ->
      Alcotest.(check bool) what true
        (match Schemas.emit_row Schemas.bench_throughput fields with
         | () -> false
         | exception Invalid_argument _ -> true))
    [ ("missing field", List.remove_assoc "iters" row);
      ("wrong kind",
       ("iters", `Float 10.0) :: List.remove_assoc "iters" row) ]

(* Verdict parity with the retired shell validator.  Each case of
   [schema_parity.jsonl] is a stream the old validator judged ("script");
   every stream it rejected must still be rejected, and one it accepted is
   rejected only where the case names the stricter rule ("stricter").  A
   "stricter" case the script rejected too names a reader that accepted
   it before reading through the format's decoder.  The health and
   history cases are written in the current formats (csod.fleet.health/3,
   csod.serve.history/2 with its seq+kind+body crc), each keeping the
   defect and the verdict it had in the format the script read, so every
   rule is judged by the decoder the readers use; a cdf out of [0, 1],
   which the epoch record no longer carries, is a count below zero or more
   detections than arrivals.  A case in a retired format
   (csod.fleet.health/1 and /2, csod.serve.history/1,
   csod.serve.status/1) is judged under its own tag, which no spec reads
   any more, so an accepted one names that rule. *)
let test_schema_parity () =
  let cases =
    In_channel.with_open_text "schema_parity.jsonl" In_channel.input_lines
  in
  Alcotest.(check bool) "corpus present" true (List.length cases > 100);
  List.iter
    (fun l ->
      let j = Result.get_ok (Obs_json.of_string l) in
      let str k =
        match Obs_json.member k j with Some (`String s) -> Some s | _ -> None
      in
      let name = Option.get (str "case") in
      let expect_ok =
        str "script" = Some "accept" && str "stricter" = None
      in
      let got =
        Schema.validate Schemas.all ?schema:(str "schema") (Option.get (str "stream"))
      in
      match (expect_ok, got) with
      | true, Ok _ | false, Error _ -> ()
      | true, Error e -> Alcotest.failf "%s: rejected (%s)" name e
      | false, Ok _ -> Alcotest.failf "%s: accepted" name)
    cases

let suite =
  [ Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "counter monotonicity" `Quick test_counter_monotonic;
    Alcotest.test_case "gauge high watermark" `Quick test_gauge;
    Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_boundaries;
    Alcotest.test_case "histogram default bounds" `Quick test_histogram_default_bounds;
    Alcotest.test_case "histogram bucket table" `Quick test_histogram_table;
    Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
    Alcotest.test_case "metrics merge histograms" `Quick test_metrics_merge_histograms;
    Alcotest.test_case "keyed registry matches a name-keyed model" `Quick
      test_keyed_registry_model;
    Alcotest.test_case "keys interned from two domains at once" `Quick
      test_keys_from_two_domains;
    Alcotest.test_case "profiler merge" `Quick test_profiler_merge;
    Alcotest.test_case "profiler charges" `Quick test_profiler;
    QCheck_alcotest.to_alcotest prop_profiler_registry_agree;
    QCheck_alcotest.to_alcotest prop_machine_attribution;
    Alcotest.test_case "in_phase: outermost wins" `Quick test_in_phase_outermost_wins;
    Alcotest.test_case "event sink install/restore" `Quick test_event_sink;
    Alcotest.test_case "event sink renders as to_string" `Quick
      test_event_sink_renders_as_to_string;
    Alcotest.test_case "snapshot determinism" `Quick test_snapshot_determinism;
    Alcotest.test_case "heartbleed metrics" `Quick test_heartbleed_metrics;
    Alcotest.test_case "heartbleed profile coverage" `Quick
      test_heartbleed_profile_coverage;
    Alcotest.test_case "telemetry does not perturb" `Quick test_metrics_do_not_perturb;
    Alcotest.test_case "lifecycle stream equals the ring" `Quick
      test_lifecycle_stream_is_the_ring;
    Alcotest.test_case "snapshots sit at their cycle boundaries" `Quick
      test_snapshots_sit_at_their_boundaries;
    Alcotest.test_case "respond stream equals the ring" `Quick
      test_respond_stream_is_the_ring;
    Alcotest.test_case "start-up decision streams prob 1" `Quick
      test_startup_decision_streamed;
    Alcotest.test_case "json encoder" `Quick test_obs_json;
    Alcotest.test_case "telemetry json export" `Quick test_telemetry_json;
    Alcotest.test_case "sink flushes on uninstall" `Quick
      test_sink_flush_on_uninstall;
    Alcotest.test_case "with_sink flushes" `Quick test_with_sink_flushes;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "histogram json percentiles" `Quick
      test_histogram_json_has_percentiles;
    Alcotest.test_case "lifecycle event schema" `Quick
      test_lifecycle_event_schema;
    Alcotest.test_case "flight recorder ring" `Quick test_flight_recorder_ring;
    Alcotest.test_case "flight record json" `Quick test_flight_record_json;
    Alcotest.test_case "flight recorder capacity bound" `Quick
      test_recorder_capacity_bound;
    Alcotest.test_case "cli refuses an oversized recorder" `Quick
      test_cli_recorder_capacity_bound;
    Alcotest.test_case "recording allocates nothing" `Quick
      test_recording_allocates_nothing;
    Alcotest.test_case "a recorded execution allocates nothing more" `Quick
      test_recorded_execution_allocates_nothing_more;
    Alcotest.test_case "flight recorder exact round trip" `Quick
      test_recorder_round_trip;
    Alcotest.test_case "flight recorder ring suffix on real runs" `Quick
      test_ring_suffix_real;
    Alcotest.test_case "flight recorder does not perturb" `Quick
      test_recorder_does_not_perturb;
    Alcotest.test_case "flight recorder preserves prng stream" `Quick
      test_recorder_prng_stream;
    Alcotest.test_case "chrome trace export structure" `Quick
      test_trace_export_structure;
    Alcotest.test_case "json parser" `Quick test_obs_json_parse;
    Alcotest.test_case "at-exit flush completes the stream" `Quick
      test_flush_installed_completes_stream;
    Alcotest.test_case "snapshot sequencing across a merge" `Quick
      test_snapshot_seq_across_merge;
    Alcotest.test_case "health record round-trip" `Quick test_health_roundtrip;
    Alcotest.test_case "health skew and renderer" `Quick
      test_health_skew_and_render;
    Alcotest.test_case "json float edges" `Quick test_obs_json_float_edges;
    Alcotest.test_case "health with zero executed users" `Quick
      test_health_zero_executed;
    Alcotest.test_case "fleet span export structure" `Quick
      test_fleet_span_export;
    Alcotest.test_case "health decoder refuses fabricated fields" `Quick
      test_health_decoder_refuses;
    Alcotest.test_case "schema: field kinds" `Quick test_schema_kinds;
    Alcotest.test_case "schema: untagged streams" `Quick
      test_schema_untagged_streams;
    Alcotest.test_case "schema: one spec per format" `Quick
      test_schema_registry;
    Alcotest.test_case "schema: bench rows refused" `Quick
      test_bench_rows_refused;
    Alcotest.test_case "schema: verdict parity with the shell validator"
      `Quick test_schema_parity ]
