let schema = "csod.serve.history/1"

type kind = Meta | Health | Alert

let kind_to_string = function
  | Meta -> "meta"
  | Health -> "health"
  | Alert -> "alert"

let kind_of_string = function
  | "meta" -> Some Meta
  | "health" -> Some Health
  | "alert" -> Some Alert
  | _ -> None

type record = { seq : int; kind : kind; body : Obs_json.t }

(* FNV-1a over the rendered body. *)
let crc s = Fnv.string Fnv.offset s

let line r =
  let body = Obs_json.to_string r.body in
  Printf.sprintf
    {|{"schema":"%s","seq":%d,"kind":"%s","crc":"%016Lx","body":%s}|} schema
    r.seq (kind_to_string r.kind) (crc body) body

let fields =
  Schema.[ ("seq", Int); ("kind", String); ("crc", String); ("body", Object) ]

let of_json json =
  let ( let* ) = Result.bind in
  let* () =
    match Obs_json.member "schema" json with
    | Some (`String s) when s = schema -> Schema.has_fields fields json
    | _ -> Error ("not a " ^ schema ^ " record")
  in
  let get k = Option.get (Obs_json.member k json) and seq = Schema.int json "seq" in
  let body = get "body" in
  let actual = Printf.sprintf "%016Lx" (crc (Obs_json.to_string body)) in
  match (get "kind", get "crc") with
  | `String k, `String stored when stored = actual -> (
    match kind_of_string k with
    | Some kind -> Ok { seq; kind; body }
    | None -> Error (Printf.sprintf "unknown history kind %S" k))
  | _, stored ->
    Error
      (Printf.sprintf "seq %d: checksum mismatch (%s vs %s)" seq
         (Obs_json.to_string stored) actual)

(* Per stream: contiguous sequence numbers, and bodies that decode — alert
   bodies under the alert stream check, resumed when the segment starts
   past seq 0 (its earlier transitions are not in view). *)
let check_stream () =
  let next = ref None and alerts = ref (fun _ -> Ok ()) in
  fun json ->
    let ( let* ) = Result.bind in
    let* r = of_json json in
    let* () =
      match !next with
      | Some n when r.seq <> n ->
        Error (Printf.sprintf "seq %d, expected %d" r.seq n)
      | Some _ -> Ok ()
      | None ->
        alerts := Alert.transitions ~resumed:(r.seq <> 0) ();
        Ok ()
    in
    next := Some (r.seq + 1);
    match r.kind with
    | Health when Serve_obs.of_json r.body = None -> Error "malformed health body"
    | Meta | Health -> Ok ()
    | Alert -> Result.bind (Schema.shape Alert.spec r.body) (fun () -> !alerts r.body)

let spec = Schema.make schema ~stream:check_stream fields

(* Writing *)

type writer = {
  dir : string;
  rotate : int;
  mutable next_seq : int;
  mutable seg : int;
  mutable seg_lines : int;
  mutable oc : out_channel option;
}

let segment_name i = Printf.sprintf "serve-%06d.jsonl" i

let writer ?(rotate = 4096) ?(seq = 0) ?(segment = 0) ?(lines = 0) dir =
  if rotate < 1 then invalid_arg "History.writer: rotate must be >= 1";
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  { dir; rotate; next_seq = seq; seg = segment; seg_lines = lines; oc = None }

let channel w =
  match w.oc with
  | Some oc -> oc
  | None ->
    let path = Filename.concat w.dir (segment_name w.seg) in
    let oc =
      open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
    in
    w.oc <- Some oc;
    oc

let close w =
  Option.iter close_out w.oc;
  w.oc <- None

let append w kind body =
  let seq = w.next_seq in
  let oc = channel w in
  output_string oc (line { seq; kind; body });
  output_char oc '\n';
  flush oc;
  w.next_seq <- seq + 1;
  w.seg_lines <- w.seg_lines + 1;
  if w.seg_lines >= w.rotate then begin
    close w;
    w.seg <- w.seg + 1;
    w.seg_lines <- 0
  end;
  seq

let seq w = w.next_seq
let segment w = w.seg
let lines_in_segment w = w.seg_lines

let truncate dir ~segment ~lines =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        match
          Scanf.sscanf_opt f "serve-%06d.jsonl%!" (fun i -> i)
        with
        | Some i when i > segment -> Sys.remove (Filename.concat dir f)
        | _ -> ())
      (Sys.readdir dir);
    let path = Filename.concat dir (segment_name segment) in
    if Sys.file_exists path then begin
      let ic = open_in path in
      let keep = Buffer.create 4096 in
      (try
         for _ = 1 to lines do
           Buffer.add_string keep (input_line ic);
           Buffer.add_char keep '\n'
         done
       with End_of_file -> ());
      close_in ic;
      (* Whole or not at all: the kept prefix is the segment resume
         continues, so a failed rewrite must leave it as it was. *)
      Atomic_file.write path (Buffer.contents keep)
    end
  end

(* Reading *)

let segments dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
         String.length f = String.length (segment_name 0)
         && String.sub f 0 6 = "serve-"
         && Filename.check_suffix f ".jsonl")
    |> List.sort compare
    |> List.map (Filename.concat dir)

let read dir =
  let records = ref [] and errors = ref [] in
  List.iter
    (fun path ->
      let ic = open_in path in
      let lineno = ref 0 in
      (try
         while true do
           let l = input_line ic in
           incr lineno;
           if String.trim l <> "" then
             match Result.bind (Obs_json.of_string l) of_json with
             | Ok r -> records := r :: !records
             | Error e ->
               errors :=
                 Printf.sprintf "%s:%d: %s" (Filename.basename path) !lineno e
                 :: !errors
         done
       with End_of_file -> ());
      close_in ic)
    (segments dir);
  (List.rev !records, List.rev !errors)
