type kind = Int | Float | String | Bool | List | Object | Nullable of kind

type 'a t = {
  name : string;
  fields : (string * kind) list;
  canonical : bool;
  stream : unit -> Obs_json.t -> ('a, string) result;
}

let make ?(canonical = false) ?(stream = fun () _ -> Ok ()) name fields =
  { name; fields; canonical; stream }

let of_decoder name fields decode =
  { name; fields; canonical = false; stream = (fun () -> decode) }

let erase t =
  { t with
    stream = (fun () -> let d = t.stream () in fun j -> Result.map ignore (d j)) }

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

let decoder t () =
  let d = t.stream () in
  fun json -> Result.bind (shape t json) (fun () -> d json)

let decode t json = decoder t () json
let conforms t json = Result.map ignore (decode t json)
let parse l = Result.map_error (( ^ ) "invalid JSON: ") (Obs_json.of_string l)

(* [json], parsed from [l]: a canonical format's line is exactly the
   rendering of its record, so no byte of it can change unseen. *)
let rendered t l json =
  if t.canonical && Obs_json.to_string json <> l then
    Error "line is not the rendering of its record"
  else Ok json

let record t l =
  let* json = Result.bind (parse l) (rendered t l) in
  Result.map (fun () -> json) (shape t json)

let read t text =
  let d = t.stream () in
  List.rev
    (Lines.fold (fun acc _ l -> Result.bind (Result.bind l (record t)) d :: acc) [] text)

let validate specs ?schema text =
  let find name = List.find_opt (fun t -> t.name = name) specs in
  (* One decoder per spec for the whole stream. *)
  let decoders = List.map (fun t -> (t.name, lazy (decoder t ()))) specs in
  let check t l json =
    Result.bind (rendered t l json) (Lazy.force (List.assoc t.name decoders))
  in
  let judge l =
    match parse l with
    | Error e -> Error e
    | Ok (`Assoc _ as json) -> (
      match (schema, Obs_json.member "schema" json) with
      | Some s, _ -> check (Option.get (find s)) l json
      | None, Some (`String tag) -> (
        match find tag with
        | Some t -> check t l json
        | None when String.starts_with ~prefix:"csod." tag ->
          Error (Printf.sprintf "unknown schema tag %S" tag)
        | None -> Ok ())
      | None, _ -> Ok ())
    | Ok _ -> Error "line is not a JSON object"
  in
  match schema with
  | Some s when find s = None ->
    Error
      (Printf.sprintf "unknown schema %S; known: %s" s
         (String.concat ", " (List.sort compare (List.map name specs))))
  | _ -> (
    let lines =
      Lines.fold
        (fun acc n line ->
          let* _ = acc in
          match Result.bind line judge with
          | Ok () -> Ok n
          | Error e -> Error (Printf.sprintf "line %d: %s" n e))
        (Ok 0) text
    in
    match (lines, schema) with
    | Ok 0, Some s -> Error (Printf.sprintf "empty stream (expected %s rows)" s)
    | r, _ -> r)
