let schema = "csod.serve.history/2"

type kind = Meta | Health | Alert

(* Each kind and its name, both ways. *)
let kinds = [ (Meta, "meta"); (Health, "health"); (Alert, "alert") ]
let kind_to_string k = List.assoc k kinds
let kind_of_string s = List.find_map (fun (k, n) -> if n = s then Some k else None) kinds

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

(* ---- the meta record ---- *)

type meta = {
  workload : Workload.t;
  epoch_size : int;
  faults : Fault_plan.t option;
  patch_threshold : int option;
  rules : Alert.rule list;
  windows : int list;
}

let meta_table : meta Schema.field list =
  Schema.Field.
    [ record "workload" Workload.table (Workload.make ~users:0 ())
        (fun m -> m.workload) (fun m workload -> { m with workload });
      int ~min:1 "epoch_size" (fun m -> m.epoch_size) (fun m epoch_size -> { m with epoch_size });
      nullable "faults" String
        (fun p -> `String (Fault_plan.to_string p))
        (function `String s -> Result.to_option (Fault_plan.of_string s) | _ -> None)
        (fun m -> m.faults) (fun m faults -> { m with faults });
      nullable "patch_threshold" Int (fun n -> `Int n)
        (function `Int n when n >= 1 -> Some n | _ -> None)
        (fun m -> m.patch_threshold) (fun m patch_threshold -> { m with patch_threshold });
      (* one spec per rule *)
      list "alerts"
        (fun r -> `String (Alert.to_spec r))
        (function `String s -> (match Alert.parse s with Ok [ r ] -> Some r | _ -> None) | _ -> None)
        (fun m -> m.rules) (fun m rules -> { m with rules });
      list "windows" (fun w -> `Int w)
        (function `Int w when w >= 1 -> Some w | _ -> None)
        (fun m -> m.windows) (fun m windows -> { m with windows }) ]

let meta_to_json m = Schema.to_json meta_table m

let meta_of_json =
  Schema.of_json meta_table
    { workload = Workload.make ~users:0 (); epoch_size = 1; faults = None;
      patch_threshold = None; rules = []; windows = [] }

type log = {
  meta : meta option;
  health : Health.t list;
  alerts : Alert.event list;
  errors : string list;
}

(* The log's rules, over the lines of a stream: [Ok] a record with the
   format's fields, [Error] a line that holds none.  The checksum holds; the
   seq runs on by one from [first] (or, for a lone later segment, from the
   first record), where each lost line in between may have carried one; a
   health body decodes; there is one meta record at most (a second is
   another run's configuration); alert bodies keep the transition rules,
   resumed when the stream starts past seq 0.  Every error about a record
   names its seq.  A record out of sequence is not lost: it belongs to another run.
   A record decodes to its place in the log (lists newest first). *)
let decoder ?first () =
  let last = ref (Option.map pred first) and lost = ref 0 and alerts = ref None in
  let meta_seen = ref false in
  function
  | Error e ->
    incr lost;
    Error e
  | Ok json -> (
    let get k = Option.get (Obs_json.member k json) in
    let seq = match get "seq" with `Int n -> n | _ -> -1 in
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
        | Meta when !meta_seen -> error ": a second meta record"
        | Meta -> (
          meta_seen := true;
          match meta_of_json body with
          | Ok m -> Ok (fun log -> { log with meta = Some m })
          | Error e -> error (": meta record: " ^ e))
        | Health -> (
          match Health.of_json body with
          | Ok r -> Ok (fun log -> { log with health = r :: log.health })
          | Error _ -> error ": malformed health body")
        | Alert -> (
          let check e = Result.map (fun () -> e) (Option.get !alerts e) in
          match Result.bind (Alert.of_json body) check with
          | Ok e -> Ok (fun log -> { log with alerts = e :: log.alerts })
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
