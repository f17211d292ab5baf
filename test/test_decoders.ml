(* Each durable format has one decoder, and [validate] and the readers
   read through it: they give the same verdict on the same bytes.  Then
   seeded byte mutation over the decoders: no exception escapes, what a
   reader salvages is a subset of the intact records, and a one-bit flip in
   a checksummed history line or in a store's data is refused. *)

(* [f dir] in a fresh directory, removed afterwards. *)
let in_temp_dir f =
  let d = Filename.temp_file "csod_decoders" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  Fun.protect ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote d))) (fun () -> f d)

let read_file f = In_channel.with_open_bin f In_channel.input_all
let write_file f s = Out_channel.with_open_bin f (fun oc -> output_string oc s)

let history_verdict text =
  Schema.validate Schemas.all ~schema:"csod.serve.history/1" text

(* A one-segment history of a short stall@3 run: meta, then a health
   record per epoch. *)
let small_history dir =
  let w = History.writer dir in
  ignore
    (History.append w History.Meta
       (`Assoc [ ("alerts", `List [ `String "stall@3" ]); ("windows", `List [ `Int 2 ]) ]));
  for i = 0 to 4 do
    ignore (History.append w History.Health (Serve_obs.to_json (Test_serve.obs i)))
  done;
  History.close w;
  List.hd (History.segments dir)

(* A blank line, an unterminated last line and a copy of the segment
   appended: [validate] refuses each, [History.read] lists the line, and
   [replay] reports it as a read error. *)
let test_history_reader_parity () =
  in_temp_dir @@ fun dir ->
  let seg = small_history dir in
  let intact = read_file seg in
  let first_nl = String.index intact '\n' + 1 in
  List.iter
    (fun (what, text) ->
      write_file seg text;
      Alcotest.(check bool) (what ^ ": validate refuses") true
        (Result.is_error (history_verdict text));
      Alcotest.(check bool) (what ^ ": History.read lists it") true
        ((History.read dir).History.errors <> []);
      match Serve.replay dir with
      | Ok r ->
        Alcotest.(check bool) (what ^ ": replay lists it") true
          (r.Serve.read_errors <> [])
      | Error m -> Alcotest.failf "%s: %s" what m)
    [ ( "blank line",
        String.sub intact 0 first_nl ^ "\n"
        ^ String.sub intact first_nl (String.length intact - first_nl) );
      ("unterminated last line", String.sub intact 0 (String.length intact - 1));
      ("segment doubled", intact ^ intact) ];
  write_file seg intact;
  Alcotest.(check bool) "intact: validate accepts" true
    (Result.is_ok (history_verdict intact));
  Alcotest.(check (list string)) "intact: no read error" []
    (History.read dir).History.errors;
  (* The torn record is not replayed: the salvage is the records before it. *)
  write_file seg (String.sub intact 0 (String.length intact - 1));
  Alcotest.(check int) "torn last record dropped" 4
    (List.length (History.read dir).History.observations)

(* ---------- mutation ---------- *)

(* One edit at a random byte: flip a bit, drop the byte, insert a random
   one, or cut the text there. *)
let mutate g s =
  let n = String.length s in
  if n = 0 then String.make 1 (Char.chr (Prng.int g 256))
  else
    let i = Prng.int g n in
    match Prng.int g 4 with
    | 0 ->
      String.mapi
        (fun j c -> if j = i then Char.chr (Char.code c lxor (1 lsl Prng.int g 8)) else c)
        s
    | 1 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | 2 -> String.sub s 0 i ^ String.make 1 (Char.chr (Prng.int g 256)) ^ String.sub s i (n - i)
    | _ -> String.sub s 0 i

let mutants g s k =
  List.init k (fun _ ->
      let rec go s m = if m = 0 then s else go (mutate g s) (m - 1) in
      go s (1 + Prng.int g 3))

let flip_bit g s =
  let i = Prng.int g (String.length s) in
  let b = 1 lsl Prng.int g 8 in
  String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor b) else c) s

let total what f =
  match f () with
  | _ -> ()
  | exception e -> Alcotest.failf "%s: %s escaped" what (Printexc.to_string e)

(* [sub] in order within [full]. *)
let rec subsequence sub full =
  match (sub, full) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys -> if x = y then subsequence xs ys else subsequence sub ys

let test_parity_corpus_mutated () =
  let g = Prng.fork (Prng.create ~seed:36) "schema_parity" in
  let retag = Test_obs.retag in
  let repro = Sim.repro_spec Sim_registry.all in
  List.iter
    (fun l ->
      let j = Result.get_ok (Obs_json.of_string l) in
      let str k =
        match Obs_json.member k j with Some (`String s) -> Some s | _ -> None
      in
      let name = Option.get (str "case") and schema = Option.map retag (str "schema") in
      List.iter
        (fun text ->
          total name (fun () -> Schema.validate Schemas.all ?schema text);
          total name (fun () -> Schema.read Health.spec text);
          total name (fun () -> Schema.read repro text))
        (mutants g (retag (Option.get (str "stream"))) 3))
    (In_channel.with_open_text "schema_parity.jsonl" In_channel.input_lines)

let obs_strings (log : History.log) =
  List.map (fun o -> Obs_json.to_string (Serve_obs.to_json o)) log.History.observations

let test_history_mutated () =
  let g = Prng.fork (Prng.create ~seed:36) "history" in
  in_temp_dir @@ fun dir ->
  ignore (Test_serve.run_serve (Test_serve.serve_cfg ~domains:1 ~dir ()) ~epochs:12);
  let segs = History.segments dir in
  let texts = List.map read_file segs in
  let intact = History.read dir in
  Alcotest.(check (list string)) "intact history reads clean" [] intact.History.errors;
  let strings l = List.map Obs_json.to_string l in
  let is_salvage (log : History.log) =
    (log.History.meta = None || log.History.meta = intact.History.meta)
    && subsequence (obs_strings log) (obs_strings intact)
    && subsequence (strings log.History.alerts) (strings intact.History.alerts)
  in
  let with_segment k text f =
    let seg = List.nth segs k in
    write_file seg text;
    Fun.protect ~finally:(fun () -> write_file seg (List.nth texts k)) f
  in
  for _ = 1 to 60 do
    let k = Prng.int g (List.length segs) in
    List.iter
      (fun text ->
        with_segment k text (fun () ->
            match History.read dir with
            | log ->
              if not (is_salvage log) then
                Alcotest.failf "segment %d mutated: salvage is not a subset" k;
              (* No error: the bytes were only cut at a line boundary. *)
              if log.History.errors = [] then
                Alcotest.(check bool) "an error-free read is of a cut segment" true
                  (String.starts_with ~prefix:text (List.nth texts k))
            | exception e ->
              Alcotest.failf "History.read: %s escaped" (Printexc.to_string e)))
      (mutants g (List.nth texts k) 1)
  done;
  (* One bit flipped anywhere in a segment: the validator refuses the log
     and the reader lists the line and drops its record.  (The crc covers a
     record's body; its seq is checked against its neighbours, so the
     validator reads the whole log, as the reader does.) *)
  for _ = 1 to 150 do
    let k = Prng.int g (List.length segs) in
    let text = flip_bit g (List.nth texts k) in
    Alcotest.(check bool) "flipped log refused by validate" true
      (Result.is_error
         (history_verdict
            (String.concat "" (List.mapi (fun i t -> if i = k then text else t) texts))));
    with_segment k text (fun () ->
        let log = History.read dir in
        Alcotest.(check bool) "flipped line listed" true (log.History.errors <> []);
        Alcotest.(check bool) "flip salvage is a subset" true (is_salvage log))
  done

let test_store_mutated () =
  let g = Prng.fork (Prng.create ~seed:36) "store" in
  let store = Persist.create () in
  List.iter (Persist.add store)
    (List.init 24 (fun i -> ((i * 7919) mod 1000, (i * 13) mod 64)));
  let path = Filename.temp_file "csod_decoders" ".store" in
  Persist.save store path;
  let intact = read_file path in
  let keys = Persist.keys store in
  let load text =
    write_file path text;
    Persist.load_result path
  in
  let subset s = List.for_all (fun k -> List.mem k keys) (Persist.keys s) in
  (* Any edits: the load is total. *)
  List.iter
    (fun text -> total "Persist.load_result" (fun () -> load text))
    (mutants g intact 100);
  (* One edit: never a made-up key, and clean only when the keys are the
     saved ones (an extra blank within a line is tolerated). *)
  for _ = 1 to 200 do
    let text = mutate g intact in
    let s, outcome = load text in
    Alcotest.(check bool) "one edit: salvage is a subset" true (subset s);
    Alcotest.(check bool) "one edit: clean only as saved" true
      (match outcome with Persist.Clean _ -> Persist.keys s = keys | _ -> true)
  done;
  (* One flipped bit. *)
  for _ = 1 to 200 do
    let s, outcome = load (flip_bit g intact) in
    Alcotest.(check bool) "flip: salvage is a subset" true (subset s);
    Alcotest.(check bool) "flip: refused" true
      (match outcome with Persist.Recovered _ -> true | _ -> false)
  done;
  Sys.remove path

let suite =
  [ Alcotest.test_case "history: validate and the readers agree" `Quick
      test_history_reader_parity;
    Alcotest.test_case "mutation: parity corpus through every decoder" `Quick
      test_parity_corpus_mutated;
    Alcotest.test_case "mutation: history salvage, bit flips refused" `Quick
      test_history_mutated;
    Alcotest.test_case "mutation: store salvage, bit flips refused" `Quick
      test_store_mutated ]
