type kind = Int | Float | String | Bool | List | Object | Nullable of kind

type 'a t = {
  name : string;
  fields : (string * kind) list;
  canonical : bool;
  stream : unit -> Obs_json.t -> ('a, string) result;
}

let make ?(canonical = false) ?(stream = fun () _ -> Ok ()) name fields =
  { name; fields; canonical; stream }

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

(* ---- one field table per record: it encodes, decodes and names the
   required kinds ---- *)

type 'r field = {
  key : string;
  kind : kind;
  optional : bool;  (* absent: the zero record's value stands *)
  get : 'r -> Obs_json.t option;  (* [None]: not written *)
  set : 'r -> Obs_json.t -> ('r, string option) result;
      (* [Error None]: malformed; [Error (Some e)]: a nested record's [e] *)
}

let required table =
  List.filter_map (fun f -> if f.optional then None else Some (f.key, f.kind)) table

let to_json ?tag table r : Obs_json.t =
  let members =
    List.filter_map (fun f -> Option.map (fun v -> (f.key, v)) (f.get r)) table
  in
  `Assoc (match tag with Some s -> ("schema", `String s) :: members | None -> members)

let of_json table zero json =
  List.fold_left
    (fun acc f ->
      let* r = acc in
      match Obs_json.member f.key json with
      | None when f.optional -> Ok r
      | None -> Error (Printf.sprintf "missing field %S" f.key)
      | Some v when not (has_kind f.kind v) ->
        Error (Printf.sprintf "field %S has the wrong kind: %s" f.key (Obs_json.to_string v))
      | Some v ->
        Result.map_error
          (function
            | None -> Printf.sprintf "field %S is malformed" f.key
            | Some inner -> Printf.sprintf "field %S: %s" f.key inner)
          (f.set r v))
    (match json with `Assoc _ -> Ok zero | _ -> Error "not a JSON object")
    table

module Field = struct
  let make ?(optional = false) key kind get set = { key; kind; optional; get; set }

  (* [dec] answers [Error None] for a malformed member, [Error (Some e)]
     for a nested record that [of_json] refused with [e]. *)
  let nested ?optional key kind enc dec get set =
    make ?optional key kind
      (fun r -> Some (enc (get r)))
      (fun r j -> Result.map (set r) (dec j))

  let member ?optional key kind enc dec =
    nested ?optional key kind enc (fun j -> Option.to_result ~none:None (dec j))

  let conv key = member key

  let int ?optional ?(min = 0) key =
    member ?optional key Int
      (fun n -> `Int n)
      (function `Int n when n >= min -> Some n | _ -> None)

  let float key = conv key Float (fun x -> `Float x) Obs_json.to_float
  let string key = conv key String (fun s -> `String s) (function `String s -> Some s | _ -> None)

  let counts key =
    conv key Object (fun l -> `Assoc (List.map (fun (k, v) -> (k, `Int v)) l)) Obs_json.counts

  let nullable key kind enc dec =
    conv key (Nullable kind)
      (function None -> `Null | Some v -> enc v)
      (function `Null -> Some None | j -> Option.map Option.some (dec j))

  let list key enc dec =
    conv key List (fun l -> `List (List.map enc l)) (function
      | `List l -> Obs_json.all dec l
      | _ -> None)

  let obj table zero j = Result.map_error Option.some (of_json table zero j)
  let record key table zero = nested key Object (to_json table) (obj table zero)

  let records key table zero =
    let rec all = function
      | [] -> Ok []
      | j :: rest ->
        let* v = obj table zero j in
        Result.map (List.cons v) (all rest)
    in
    nested key List
      (fun l -> `List (List.map (to_json table) l))
      (function `List l -> all l | _ -> Error None)

  let option key table zero get set =
    make ~optional:true key Object
      (fun r -> Option.map (to_json table) (get r))
      (fun r j -> Result.map (fun v -> set r (Some v)) (obj table zero j))
end

let of_table ?(check = fun () _ -> Ok ()) name table zero =
  { name; fields = required table; canonical = false;
    stream =
      (fun () ->
        let check = check () in
        fun json ->
          let* r = of_json table zero json in
          Result.map (fun () -> r) (check r)) }

(* Every field present with its kind: a table that stores nothing. *)
let has_fields fields json =
  let check (key, kind) = Field.make key kind (fun _ -> None) (fun () _ -> Ok ()) in
  of_json (List.map check fields) () json

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
