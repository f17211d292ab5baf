(* BENCHMARK.json: the declared workloads and metrics, against which every
   result is checked before it is printed. *)

type metric = {
  name : string;
  unit_ : string;
  better : [ `Higher | `Lower ];
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let ( let* ) = Result.bind

let field k j =
  match Obs_json.member k j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing %S" k)

let string_of k j =
  match field k j with Ok (`String s) -> Ok s | _ -> Error (Printf.sprintf "%S: not a string" k)

let list_of k j =
  match field k j with Ok (`List l) -> Ok l | _ -> Error (Printf.sprintf "%S: not a list" k)

let rec all f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = all f rest in
    Ok (y :: ys)

let metric j =
  let* name = string_of "name" j in
  let* unit_ = string_of "unit" j in
  let* better =
    match string_of "better" j with
    | Ok "higher" -> Ok `Higher
    | Ok "lower" -> Ok `Lower
    | _ -> Error (Printf.sprintf "%s: \"better\" is neither higher nor lower" name)
  in
  Ok { name; unit_; better; bound = Option.bind (Obs_json.member "bound" j) Obs_json.to_float }

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text ->
    let* j = Obs_json.of_string text in
    let* workloads = list_of "workloads" j in
    let* workloads = all (string_of "name") workloads in
    let* e2e = list_of "end_to_end" j in
    let* end_to_end = all metric e2e in
    let* layers = list_of "per_layer" j in
    let* per_layer = all metric layers in
    Ok { workloads; end_to_end; per_layer }

(* Every declared metric present once, finite and in its declared unit;
   nothing undeclared. *)
let validate t ~traced metrics =
  let declared = if traced then t.per_layer else t.end_to_end in
  List.filter_map
    (fun m ->
      match List.filter (fun (n, _, _) -> n = m.name) metrics with
      | [] -> Some (Printf.sprintf "metric %s missing" m.name)
      | [ (_, v, u) ] ->
        if not (Float.is_finite v) then Some (Printf.sprintf "metric %s is %f" m.name v)
        else if u <> m.unit_ then
          Some (Printf.sprintf "metric %s in %s, declared %s" m.name u m.unit_)
        else None
      | _ -> Some (Printf.sprintf "metric %s reported twice" m.name))
    declared
  @ List.filter_map
      (fun (n, _, _) ->
        if List.exists (fun m -> m.name = n) declared then None
        else Some (Printf.sprintf "metric %s is not declared" n))
      metrics
