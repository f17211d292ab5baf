type domain_load = { slot : int; executed : int; busy_seconds : float }

type sample = {
  epoch : int;
  arrivals : int;
  detections : int;
  cumulative : int;
  users : int;
  cdf : float;
  store_contexts : int;
  patched : int;
      (* contexts whose accumulated evidence has crossed the code-less
         patching conviction threshold; 0 when no patch policy is active *)
  degraded : int;
  worker_crashes : int;
  faults : (string * int) list;
  snapshots : int;
  epoch_seconds : float;
  merge_seconds : float;
  observer_seconds : float;
  execs_per_sec : float;
  straggler_skew : float;
  domains : domain_load list;
}

let schema = "csod.fleet.health/2"

let straggler_skew busy =
  let busy = List.filter (fun b -> b > 0.0) busy in
  match List.sort compare busy with
  | [] | [ _ ] -> 1.0
  | sorted ->
    let n = List.length sorted in
    let median = List.nth sorted (n / 2) in
    let slowest = List.nth sorted (n - 1) in
    if median <= 1e-9 then 1.0 else slowest /. median

(* ---- JSON ---- *)

let domain_json d : Obs_json.t =
  `Assoc
    [ ("domain", `Int d.slot); ("executed", `Int d.executed);
      ("busy_seconds", `Float d.busy_seconds) ]

let fields s =
  [ ("schema", `String schema); ("epoch", `Int s.epoch);
    ("arrivals", `Int s.arrivals); ("detections", `Int s.detections);
    ("cumulative", `Int s.cumulative); ("users", `Int s.users);
    ("cdf", `Float s.cdf); ("store_contexts", `Int s.store_contexts);
    ("patched", `Int s.patched);
    ("degraded", `Int s.degraded); ("worker_crashes", `Int s.worker_crashes);
    ("faults", `Assoc (List.map (fun (k, v) -> (k, `Int v)) s.faults));
    ("snapshots", `Int s.snapshots);
    ("epoch_seconds", `Float s.epoch_seconds);
    ("merge_seconds", `Float s.merge_seconds);
    ("observer_seconds", `Float s.observer_seconds);
    ("execs_per_sec", `Float s.execs_per_sec);
    ("straggler_skew", `Float s.straggler_skew);
    ("domains", `List (List.map domain_json s.domains)) ]

let to_json s : Obs_json.t =
  `Assoc (("event", `String "fleet.health") :: fields s)

let required =
  Schema.
    [ ("epoch", Int); ("arrivals", Int); ("detections", Int);
      ("cumulative", Int); ("users", Int); ("cdf", Float);
      ("store_contexts", Int); ("patched", Int); ("degraded", Int);
      ("worker_crashes", Int); ("faults", Object); ("snapshots", Int);
      ("epoch_seconds", Float); ("merge_seconds", Float);
      ("observer_seconds", Float); ("execs_per_sec", Float);
      ("straggler_skew", Float); ("domains", List) ]

let spec =
  Schema.of_decoder schema required (fun json ->
      let int = Schema.int json and flt = Schema.float json in
      let domain d =
        match Obs_json.(member "domain" d, member "executed" d) with
        | Some (`Int slot), Some (`Int executed) ->
          Option.map
            (fun busy_seconds -> { slot; executed; busy_seconds })
            (Option.bind (Obs_json.member "busy_seconds" d) Obs_json.to_float)
        | _ -> None
      in
      let get k = Option.get (Obs_json.member k json) in
      match
        ( Obs_json.counts (get "faults"),
          match get "domains" with `List l -> Obs_json.all domain l | _ -> None )
      with
      | _ when flt "cdf" < 0.0 || flt "cdf" > 1.0 -> Error "cdf out of [0, 1]"
      | None, _ -> Error "a fault count is not an int"
      | _, None -> Error "malformed domain load"
      | Some faults, Some domains ->
        Ok
          { epoch = int "epoch"; arrivals = int "arrivals";
            detections = int "detections"; cumulative = int "cumulative";
            users = int "users"; cdf = flt "cdf";
            store_contexts = int "store_contexts"; patched = int "patched";
            degraded = int "degraded"; worker_crashes = int "worker_crashes";
            faults; snapshots = int "snapshots";
            epoch_seconds = flt "epoch_seconds";
            merge_seconds = flt "merge_seconds";
            observer_seconds = flt "observer_seconds";
            execs_per_sec = flt "execs_per_sec";
            straggler_skew = flt "straggler_skew"; domains })

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

let render ?(color = true) samples =
  let c code text = if color then code ^ text ^ "\x1b[0m" else text in
  let bold = c "\x1b[1m" and dim = c "\x1b[2m" in
  let good = c "\x1b[32m" and warn = c "\x1b[33m" in
  let b = Buffer.create 1024 in
  (match List.rev samples with
  | [] -> Buffer.add_string b "no health records yet\n"
  | last :: _ ->
    let det =
      Printf.sprintf "%d (CDF %4.1f%%)" last.cumulative (100.0 *. last.cdf)
    in
    let det = if last.cumulative > 0 then good det else dim det in
    Buffer.add_string b
      (Printf.sprintf "%s  epoch %d   users %d   detections %s   store %d%s\n"
         (bold "CSOD FLEET") last.epoch last.users det last.store_contexts
         (if last.patched > 0 then Printf.sprintf "   patched %d" last.patched
          else ""));
    let tail =
      let all = List.map (fun s -> s.cdf) samples in
      let n = List.length all in
      if n > 60 then List.filteri (fun i _ -> i >= n - 60) all else all
    in
    Buffer.add_string b
      (Printf.sprintf "cdf  %s\n" (sparkline tail));
    let skew_str = Printf.sprintf "%.2fx" last.straggler_skew in
    Buffer.add_string b
      (Printf.sprintf "rate %.0f execs/s   skew %s   snapshots %d\n"
         last.execs_per_sec
         (if last.straggler_skew > 1.5 then warn skew_str else skew_str)
         last.snapshots);
    Buffer.add_string b
      (Printf.sprintf "cost epoch %s   merge %s   observer %s\n"
         (fmt_seconds last.epoch_seconds)
         (fmt_seconds last.merge_seconds)
         (fmt_seconds last.observer_seconds));
    let fault_str =
      String.concat "   "
        (Printf.sprintf "degraded %d" last.degraded
        :: Printf.sprintf "crashes %d" last.worker_crashes
        :: List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) last.faults)
    in
    Buffer.add_string b (dim ("faults " ^ fault_str) ^ "\n");
    (match last.domains with
    | [] -> ()
    | doms ->
      let busiest =
        List.fold_left (fun m d -> max m d.busy_seconds) 1e-9 doms
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
        doms));
  Buffer.contents b
