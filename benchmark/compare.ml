(* [compare]: N result files of the parent against N of the change.

   For each workload and end-to-end metric: a gain needs at least ten
   pairs, the change to win at least 9 of 10 of them (ties count for
   neither) and the medians to
   differ by more than the parent's interquartile range; a regression is a
   median worse than the parent's by more than the metric's bound; a
   parent spread wider than the bound leaves the metric unresolved unless
   every change run beats every parent run.  Deterministic counts and
   simulation digests must not move at all. *)

type row = {
  workload : string;
  traced : bool;
  seed : int;
  digest : string;
  values : (string * float * string) list;
}

let row_of_json j =
  let str k = match Obs_json.member k j with Some (`String s) -> Some s | _ -> None in
  let int k = Option.bind (Obs_json.member k j) Obs_json.to_int in
  match (str "workload", int "trace", int "seed", str "sim_digest", Obs_json.member "metrics" j) with
  | Some workload, Some trace, Some seed, Some digest, Some (`Assoc ms) ->
    let values =
      List.filter_map
        (fun (name, m) ->
          match
            ( Option.bind (Obs_json.member "value" m) Obs_json.to_float,
              Obs_json.member "unit" m )
          with
          | Some v, Some (`String u) -> Some (name, v, u)
          | _ -> None)
        ms
    in
    Some { workload; traced = trace = 1; seed; digest; values }
  | _ -> None

let read path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter_map (fun l ->
         match Obs_json.of_string l with Ok j -> row_of_json j | Error _ -> None)

let value ~workload ~traced name rows =
  List.find_map
    (fun r ->
      if r.workload = workload && r.traced = traced then
        List.find_map (fun (n, v, _) -> if n = name then Some v else None) r.values
      else None)
    rows

let better (m : Spec.metric) a b = match m.Spec.better with `Higher -> a > b | `Lower -> a < b

(* Rows of one (workload, seed, pass) must agree on everything the
   simulation decides. *)
let deterministic_diffs parent change =
  List.concat_map
    (fun p ->
      List.concat_map
        (fun c ->
          if c.workload <> p.workload || c.seed <> p.seed || c.traced <> p.traced then []
          else
            let tag = Printf.sprintf "%s seed %d trace %d" p.workload p.seed (Bool.to_int p.traced) in
            (if c.digest <> p.digest then
               [ Printf.sprintf "%s: sim_digest %s -> %s" tag p.digest c.digest ]
             else [])
            @ List.filter_map
                (fun (n, v, u) ->
                  if u <> "count" then None
                  else
                    match List.find_opt (fun (n', _, _) -> n' = n) c.values with
                    | Some (_, v', _) when v' <> v ->
                      Some (Printf.sprintf "%s: %s %.0f -> %.0f" tag n v v')
                    | _ -> None)
                p.values)
        (List.concat change))
    (List.concat parent)

let run ~(spec : Spec.t) ~parent ~change =
  let parent = List.map read parent and change = List.map read change in
  let regressions = ref 0 in
  Printf.printf "%-16s %-18s %14s %22s %14s %8s %6s  %s\n" "workload" "metric"
    "parent p50" "parent q1..q3" "change p50" "delta" "wins" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (m : Spec.metric) ->
          let vals files =
            List.filter_map (value ~workload ~traced:false m.Spec.name) files
          in
          let ps = Array.of_list (vals parent) and cs = Array.of_list (vals change) in
          let n = min (Array.length ps) (Array.length cs) in
          if n = 0 then
            Printf.printf "%-16s %-18s %s\n" workload m.Spec.name "no values"
          else begin
            let mp = Measure.median ps and mc = Measure.median cs in
            let q1, q3 = Measure.quartiles ps in
            let wins = ref 0 in
            for i = 0 to n - 1 do
              if better m cs.(i) ps.(i) then incr wins
            done;
            let worse_by =
              match m.Spec.better with
              | `Lower -> (mc -. mp) /. mp
              | `Higher -> (mp -. mc) /. mp
            in
            let bound = Option.value ~default:infinity m.Spec.bound in
            let all_better =
              Array.for_all (fun c -> Array.for_all (fun p -> better m c p) ps) cs
            in
            let verdict =
              if n >= 10 && better m mc mp && !wins * 10 >= 9 * n
                 && Float.abs (mc -. mp) > q3 -. q1
              then "gain"
              else if (q3 -. q1) /. mp > bound && not all_better then "unresolved"
              else if worse_by > bound then (incr regressions; "REGRESSION")
              else "within bound"
            in
            Printf.printf "%-16s %-18s %14.6g %10.6g..%-10.6g %14.6g %+7.2f%% %3d/%-2d  %s\n"
              workload m.Spec.name mp q1 q3 mc
              (100. *. (mc -. mp) /. mp)
              !wins n verdict
          end)
        spec.Spec.end_to_end)
    spec.Spec.workloads;
  let diffs = deterministic_diffs parent change in
  List.iter (Printf.printf "deterministic change: %s\n") diffs;
  if !regressions > 0 || diffs <> [] then 1 else 0
