type kind = Int | Float | String | Bool | List | Object | Nullable of kind

type t = {
  name : string;
  fields : (string * kind) list;
  stream : unit -> Obs_json.t -> (unit, string) result;
}

let make ?(check = fun _ -> Ok ()) ?stream name fields =
  { name; fields; stream = Option.value stream ~default:(fun () -> check) }

let name t = t.name
let ( let* ) = Result.bind

let rec has_kind kind (v : Obs_json.t) =
  match (kind, v) with
  | Int, `Int _ | Float, (`Int _ | `Float _) | String, `String _ | Bool, `Bool _
  | List, `List _ | Object, `Assoc _ | Nullable _, `Null -> true
  | Nullable k, v -> has_kind k v
  | _ -> false

let has_fields fields json =
  List.fold_left
    (fun acc (k, kind) ->
      let* () = acc in
      match Obs_json.member k json with
      | None -> Error (Printf.sprintf "missing field %S" k)
      | Some v when has_kind kind v -> Ok ()
      | Some v ->
        Error (Printf.sprintf "field %S has the wrong kind: %s" k (Obs_json.to_string v)))
    (Ok ()) fields

let int json k =
  match Obs_json.member k json with Some (`Int n) -> n | _ -> invalid_arg k

let float json k =
  match Option.bind (Obs_json.member k json) Obs_json.to_float with
  | Some f -> f
  | None -> invalid_arg k

let shape t json =
  match (json, Obs_json.member "schema" json) with
  | `Assoc _, Some (`String s) when s = t.name -> has_fields t.fields json
  | `Assoc _, Some (`String s) ->
    Error (Printf.sprintf "schema %S, expected %S" s t.name)
  | `Assoc _, _ -> Error (Printf.sprintf "no schema tag, expected %S" t.name)
  | _ -> Error "not a JSON object"

let conforms t json =
  let* () = shape t json in
  t.stream () json

let validate specs ?schema text =
  let find name = List.find_opt (fun t -> t.name = name) specs in
  (* One stateful check per spec for the whole stream. *)
  let checks = List.map (fun t -> (t.name, lazy (t.stream ()))) specs in
  let check t json =
    let* () = shape t json in
    Lazy.force (List.assoc t.name checks) json
  in
  let judge l =
    match Obs_json.of_string l with
    | _ when l = "" -> Error "empty line"
    | Error e -> Error ("invalid JSON: " ^ e)
    | Ok (`Assoc _ as json) -> (
      match (schema, Obs_json.member "schema" json) with
      | Some s, _ -> check (Option.get (find s)) json
      | None, Some (`String tag) -> (
        match find tag with
        | Some t -> check t json
        | None when String.starts_with ~prefix:"csod." tag ->
          Error (Printf.sprintf "unknown schema tag %S" tag)
        | None -> Ok ())
      | None, _ -> Ok ())
    | Ok _ -> Error "line is not a JSON object"
  in
  let lines = String.split_on_char '\n' text in
  let rec go n = function
    | [] | [ "" ] -> Ok (n - 1)
    | [ _ ] -> Error (Printf.sprintf "line %d: truncated final line (no newline)" n)
    | l :: rest -> (
      match judge l with
      | Ok () -> go (n + 1) rest
      | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  match schema with
  | Some s when find s = None ->
    Error
      (Printf.sprintf "unknown schema %S; known: %s" s
         (String.concat ", " (List.sort compare (List.map name specs))))
  | _ -> (
    match (go 1 lines, schema) with
    | Ok 0, Some s -> Error (Printf.sprintf "empty stream (expected %s rows)" s)
    | r, _ -> r)
