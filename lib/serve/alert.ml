type condition =
  | Stall
  | Degraded_above of float
  | Skew_above of float
  | Fault_burn_above of float
  | Cdf_below of float
  | Patch_above of float

type rule = { name : string; window : int; cond : condition }

let limit_str x =
  (* Shortest round-trip form: "0.1", "3", not "3." *)
  let s = Printf.sprintf "%.12g" x in
  if String.length s > 0 && s.[String.length s - 1] = '.' then
    String.sub s 0 (String.length s - 1)
  else s

let to_spec r =
  let body =
    match r.cond with
    | Stall -> "stall"
    | Degraded_above l -> "degraded>" ^ limit_str l
    | Skew_above l -> "skew>" ^ limit_str l
    | Fault_burn_above l -> "faults>" ^ limit_str l
    | Cdf_below l -> "cdf<" ^ limit_str l
    | Patch_above l -> "patch>" ^ limit_str l
  in
  Printf.sprintf "%s@%d" body r.window

let parse_rule tok =
  let tok = String.trim tok in
  let body, window =
    match String.index_opt tok '@' with
    | None -> (tok, None)
    | Some i ->
      ( String.sub tok 0 i,
        Some (String.sub tok (i + 1) (String.length tok - i - 1)) )
  in
  let name, op, limit =
    match (String.index_opt body '>', String.index_opt body '<') with
    | Some _, Some _ -> (body, '?', None)
    | Some i, None ->
      ( String.sub body 0 i, '>',
        Some (String.sub body (i + 1) (String.length body - i - 1)) )
    | None, Some i ->
      ( String.sub body 0 i, '<',
        Some (String.sub body (i + 1) (String.length body - i - 1)) )
    | None, None -> (body, ' ', None)
  in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let limit_of default =
    match limit with
    | None -> Ok default
    | Some s -> (
      match float_of_string_opt s with
      | Some l when Float.is_finite l && l >= 0. -> Ok l
      | _ -> err "alert %S: bad limit %S" tok s)
  in
  let cond =
    match (name, op) with
    | "stall", ' ' -> Ok (Stall, 50)
    | "stall", _ -> err "alert %S: stall takes no limit" tok
    | "degraded", (' ' | '>') ->
      Result.map (fun l -> (Degraded_above l, 10)) (limit_of 0.1)
    | "skew", (' ' | '>') ->
      Result.map (fun l -> (Skew_above l, 10)) (limit_of 3.)
    | "faults", (' ' | '>') ->
      Result.map (fun l -> (Fault_burn_above l, 10)) (limit_of 1.)
    | "cdf", (' ' | '<') ->
      Result.map (fun l -> (Cdf_below l, 10)) (limit_of 0.5)
    | "patch", (' ' | '>') ->
      Result.map (fun l -> (Patch_above l, 10)) (limit_of 0.)
    | ("degraded" | "skew" | "faults" | "patch"), '<' | "cdf", '>' ->
      err "alert %S: comparator points the wrong way" tok
    | _ -> err "unknown alert %S" tok
  in
  match cond with
  | Error _ as e -> e
  | Ok (cond, default_window) -> (
    match window with
    | None -> Ok { name; window = default_window; cond }
    | Some w -> (
      match int_of_string_opt w with
      | Some w when w >= 1 -> Ok { name; window = w; cond }
      | _ -> err "alert %S: bad window %S" tok w))

let parse spec =
  let toks =
    String.split_on_char '\n' spec
    |> List.concat_map (String.split_on_char ',')
    |> List.map String.trim
    |> List.filter (fun t -> t <> "" && t.[0] <> '#')
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | t :: rest -> (
      match parse_rule t with
      | Ok r -> go (r :: acc) rest
      | Error _ as e -> e)
  in
  go [] toks

let defaults =
  match parse "stall,degraded,skew" with
  | Ok rules -> rules
  | Error _ -> assert false

let holds r (a : Health.agg) =
  match r.cond with
  | Stall -> a.detections = 0
  | Degraded_above l ->
    a.arrivals > 0 && float_of_int a.degraded /. float_of_int a.arrivals > l
  | Skew_above l -> a.skew_max > l
  | Fault_burn_above l ->
    let burns =
      a.worker_crashes + List.fold_left (fun s (_, n) -> s + n) 0 a.faults
    in
    a.epochs > 0 && float_of_int burns /. float_of_int a.epochs > l
  | Cdf_below l -> a.cdf_last < l
  | Patch_above l -> float_of_int a.patched > l

type event = {
  rule : rule;
  epoch : int;
  firing : bool;
  since : int;
  window : Health.agg;
}

let schema = "csod.fleet.alert/1"

let event_to_json e : Obs_json.t =
  `Assoc
    [ ("schema", `String schema);
      ("alert", `String e.rule.name);
      ("spec", `String (to_spec e.rule));
      ("state", `String (if e.firing then "fire" else "clear"));
      ("epoch", `Int e.epoch); ("since", `Int e.since);
      ("window", Health.agg_to_json e.window) ]

let transitions ~resumed () =
  let last = Hashtbl.create 4 in
  fun json ->
    let str k = match Obs_json.member k json with Some (`String s) -> s | _ -> "" in
    let spec = str "spec" and firing = str "state" = "fire" in
    let epoch = Schema.int json "epoch" and since = Schema.int json "since" in
    let prev = Hashtbl.find_opt last spec in
    Hashtbl.replace last spec firing;
    match Option.bind (Obs_json.member "window" json) Health.agg_of_json with
    | None -> Error "malformed alert window"
    | Some _ when not (List.mem (str "state") [ "fire"; "clear" ]) ->
      Error (Printf.sprintf "alert state %S is not fire/clear" (str "state"))
    | Some w ->
      if not (w.first_epoch <= w.last_epoch && w.last_epoch <= epoch) then
        Error
          (Printf.sprintf "alert window [%d, %d] outside epoch %d" w.first_epoch
             w.last_epoch epoch)
      else if w.epochs < 1 then
        Error (Printf.sprintf "alert window covers %d epochs" w.epochs)
      else if firing && prev = Some true then
        Error (spec ^ " fired twice without clearing")
      else if (not firing) && prev <> Some true && not (resumed && prev = None)
      then Error (spec ^ " cleared without firing")
      else if firing && since <> epoch then
        Error (Printf.sprintf "fire event since %d != epoch %d" since epoch)
      else if (not firing) && (since < 0 || since > epoch) then
        Error (Printf.sprintf "clear event since %d outside [0, %d]" since epoch)
      else Ok ()

let spec =
  Schema.make schema ~stream:(transitions ~resumed:false)
    Schema.
      [ ("alert", String); ("spec", String); ("state", String);
        ("epoch", Int); ("since", Int); ("window", Object) ]

type state = { rule : rule; mutable firing : bool; mutable since : int }
type t = { states : state list }

let engine rules =
  { states = List.map (fun r -> { rule = r; firing = false; since = -1 }) rules }

let rules t = List.map (fun s -> s.rule) t.states

let observe t set ~epoch =
  List.filter_map
    (fun s ->
      if Window.rows set < s.rule.window then None
      else
        match Window.get set s.rule.window with
        | None -> None
        | Some agg ->
          let now = holds s.rule agg in
          if now = s.firing then None
          else begin
            s.firing <- now;
            if now then s.since <- epoch;
            Some
              { rule = s.rule; epoch; firing = now; since = s.since;
                window = agg }
          end)
    t.states

let firing t =
  List.filter_map
    (fun s -> if s.firing then Some (s.rule, s.since) else None)
    t.states
