let schema = "csod.serve.history/2"

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

(* FNV-1a over the record's seq, kind and rendered body: a flipped bit in
   any of them is a checksum error, not a record out of sequence. *)
let crc ~seq kind body =
  Fnv.string Fnv.offset (Printf.sprintf "%d %s %s" seq kind body)

let line ~seq kind body =
  let body = Obs_json.to_string body and kind = kind_to_string kind in
  Printf.sprintf
    {|{"schema":"%s","seq":%d,"kind":"%s","crc":"%016Lx","body":%s}|} schema
    seq kind (crc ~seq kind body) body

let fields =
  Schema.[ ("seq", Int); ("kind", String); ("crc", String); ("body", Object) ]

type log = {
  meta : Obs_json.t option;
  health : Health.t list;
  alerts : Obs_json.t list;
  errors : string list;
}

(* The log's rules, over the lines of a stream: [Ok] a record with the
   format's fields, [Error] a line that holds none.  The checksum holds; the
   seq runs on by one from [first] (or, for a lone later segment, from the
   first record), where each lost line in between may have carried one; a
   health body decodes; alert bodies keep the transition rules, resumed
   when the stream starts past seq 0.  Every error about a record names its
   seq.  A record out of sequence is not lost: it belongs to another run.
   A record decodes to its place in the log (lists newest first). *)
let decoder ?first () =
  let last = ref (Option.map pred first) and lost = ref 0 and alerts = ref None in
  function
  | Error e ->
    incr lost;
    Error e
  | Ok json -> (
    let seq = Schema.int json "seq" and get k = Option.get (Obs_json.member k json) in
    let error m = Error (Printf.sprintf "seq %d%s" seq m) in
    let body = get "body" and kind = match get "kind" with `String k -> k | _ -> "" in
    let actual = Printf.sprintf "%016Lx" (crc ~seq kind (Obs_json.to_string body)) in
    match kind_of_string kind with
    | _ when get "crc" <> `String actual ->
      incr lost;
      error
        (Printf.sprintf ": checksum mismatch (%s vs %s)"
           (Obs_json.to_string (get "crc")) actual)
    | None ->
      incr lost;
      error (": unknown history kind " ^ Obs_json.to_string (get "kind"))
    | Some kind -> (
      match !last with
      | Some l when seq <= l || seq > l + 1 + !lost ->
        error (Printf.sprintf ", expected %d" (l + 1))
      | _ -> (
        last := Some seq;
        lost := 0;
        if !alerts = None then
          alerts :=
            Some (Alert.transitions ~resumed:(Option.value first ~default:seq <> 0) ());
        match kind with
        | Meta -> Ok (fun log -> if log.meta = None then { log with meta = Some body } else log)
        | Health -> (
          match Health.of_json body with
          | Ok r -> Ok (fun log -> { log with health = r :: log.health })
          | Error _ -> error ": malformed health body")
        | Alert -> (
          match
            Result.bind (Schema.shape Alert.spec body) (fun () -> Option.get !alerts body)
          with
          | Ok () -> Ok (fun log -> { log with alerts = body :: log.alerts })
          | Error e -> error (": " ^ e)))))

let spec =
  Schema.make schema fields ~canonical:true ~stream:(fun () ->
      let d = decoder () in
      fun json -> Result.map ignore (d (Ok json)))

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
  output_string oc (line ~seq kind body);
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
      (* The first [lines] lines that are lines: a torn fragment is never
         completed into one. *)
      let keep =
        Lines.fold
          (fun keep n line ->
            match line with Ok l when n <= lines -> l :: keep | _ -> keep)
          [] (In_channel.with_open_bin path In_channel.input_all)
      in
      (* Whole or not at all: the kept prefix is the segment resume
         continues, so a failed rewrite must leave it as it was. *)
      Atomic_file.write path (String.concat "" (List.rev_map (fun l -> l ^ "\n") keep))
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

(* One decoder over every segment, from seq 0.  A line that holds no record
   is named by its file and line; a record, by its seq. *)
let read dir =
  let decode = decoder ~first:0 () in
  let add file log n line =
    let line = Result.bind line (Schema.record spec) in
    match decode line with
    | Ok place -> place log
    | Error e ->
      let e = if Result.is_ok line then e else Printf.sprintf "%s:%d: %s" file n e in
      { log with errors = e :: log.errors }
  in
  let log =
    List.fold_left
      (fun log path ->
        Lines.fold (add (Filename.basename path)) log
          (In_channel.with_open_bin path In_channel.input_all))
      { meta = None; health = []; alerts = []; errors = [] }
      (segments dir)
  in
  { log with
    health = List.rev log.health;
    alerts = List.rev log.alerts;
    errors = List.rev log.errors }
