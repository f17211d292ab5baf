(* Tests for the service layer: rolling windows with exact merge
   semantics, the alert rule engine, durable checksummed history, and the
   serve loop's headline guarantees — history/alerts/status bit-identical
   across domain counts, offline replay equivalence, and checkpoint
   resume continuing the same deterministic stream. *)

(* A deterministic pseudo-record stream: every field is a pure function
   of the index, with enough variety to exercise every merge rule (max,
   last, per-name counter sums, patched states turned into convictions). *)
let record i : Health.t =
  let fault_names = [ "trap.dropped"; "runtime.degraded"; "persist.corrupt_lines" ] in
  { Health.epoch = i;
    arrivals = 10 + (i mod 7);
    detections = i mod 3;
    degraded = i mod 2;
    worker_crashes = (if i mod 5 = 0 then 1 else 0);
    faults =
      List.filteri (fun j _ -> (i + j) mod 3 = 0) fault_names
      |> List.map (fun n -> (n, 1 + (i mod 4)));
    snapshots = i mod 6;
    cycles = 1000 + (i * 17);
    cycle_skew = 1.0 +. (float_of_int (i mod 9) /. 3.0);
    store_contexts = i / 4;
    patched = 1 + (i / 11);
    wall = None }

(* Each record's one-epoch aggregate, read against the run's total before
   it: what a service pushes into its windows. *)
let spans records =
  snd
    (List.fold_left_map
       (fun total r ->
         let a = Health.span total r in
         (Health.merge total a, a))
       Health.empty records)

(* The specification: a linear left fold over the covered epochs. *)
let linear_fold spans = List.fold_left Health.merge Health.empty spans

let agg = Alcotest.testable (fun ppf a ->
    Fmt.string ppf (Obs_json.to_string (Health.agg_to_json a)))
    ( = )

(* Aggregates compared across a serialization boundary: floats print at
   %.12g, so "equal" means "serialize to the same document" — exactly the
   bit-identical-files contract the service makes. *)
let agg_doc =
  Alcotest.testable
    (fun ppf a -> Fmt.string ppf (Obs_json.to_string (Health.agg_to_json a)))
    (fun a b ->
      Obs_json.to_string (Health.agg_to_json a)
      = Obs_json.to_string (Health.agg_to_json b))

let last_n n l =
  let len = List.length l in
  List.filteri (fun i _ -> i >= len - n) l

(* ---------- Window ---------- *)

let test_window_ring_equals_fold () =
  let all = spans (List.init 138 record) in
  List.iter
    (fun size ->
      let w = Window.create ~size in
      List.iteri
        (fun i a ->
          Window.push w a;
          let covered = last_n size (List.filteri (fun j _ -> j <= i) all) in
          Alcotest.check agg
            (Printf.sprintf "size %d at push %d" size i)
            (linear_fold covered) (Window.aggregate w))
        all)
    [ 1; 2; 3; 7; 10; 64; 100 ]

let test_window_merge_properties () =
  let a = linear_fold (spans (List.init 5 record)) in
  Alcotest.check agg "empty is left identity" a (Health.merge Health.empty a);
  Alcotest.check agg "empty is right identity" a (Health.merge a Health.empty);
  (* Associativity over adjacent groupings: fold the same 12 epochs with
     every split point and compare. *)
  let os = spans (List.init 12 record) in
  let whole = List.fold_left Health.merge Health.empty os in
  Alcotest.check agg "the spans' merge is the run's fold" whole
    (List.fold_left Health.fold Health.empty (List.init 12 record));
  for split = 0 to 12 do
    let left = List.filteri (fun i _ -> i < split) os in
    let right = List.filteri (fun i _ -> i >= split) os in
    Alcotest.check agg
      (Printf.sprintf "split at %d" split)
      whole
      (Health.merge
         (List.fold_left Health.merge Health.empty left)
         (List.fold_left Health.merge Health.empty right))
  done

let test_window_agg_json_roundtrip () =
  let a = linear_fold (spans (List.init 23 record)) in
  (match Health.agg_of_json (Health.agg_to_json a) with
  | Some b -> Alcotest.check agg "agg round-trips" a b
  | None -> Alcotest.fail "agg_of_json failed");
  Alcotest.(check (option reject)) "garbage rejected" None
    (Option.map ignore (Health.agg_of_json (`Assoc [ ("epochs", `String "x") ])))

(* ---------- Alert ---------- *)

let specs_of rules = List.map Alert.to_spec rules

let test_alert_parse () =
  (match Alert.parse "stall@50,degraded>0.1@10" with
  | Ok rules ->
    Alcotest.(check (list string)) "parses and echoes"
      [ "stall@50"; "degraded>0.1@10" ] (specs_of rules)
  | Error m -> Alcotest.fail m);
  (match Alert.parse "stall, skew>3\n# a comment\ncdf<0.5@30\nfaults@5" with
  | Ok rules ->
    Alcotest.(check (list string)) "newlines, comments, defaults"
      [ "stall@50"; "skew>3@10"; "cdf<0.5@30"; "faults>1@5" ] (specs_of rules)
  | Error m -> Alcotest.fail m);
  Alcotest.(check (list string)) "defaults"
    [ "stall@50"; "degraded>0.1@10"; "skew>3@10" ] (specs_of Alert.defaults);
  List.iter
    (fun bad ->
      match Alert.parse bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error _ -> ())
    [ "bogus"; "stall>3"; "cdf>0.5"; "degraded<0.1"; "skew>wat"; "stall@0";
      "skew>-1"; "degraded>0.1@x" ];
  (* Every canonical spec re-parses to itself. *)
  List.iter
    (fun spec ->
      match Alert.parse spec with
      | Ok [ r ] -> Alcotest.(check string) "round-trip" spec (Alert.to_spec r)
      | _ -> Alcotest.failf "%S did not parse to one rule" spec)
    [ "stall@50"; "degraded>0.25@10"; "skew>3@7"; "faults>0.5@20";
      "cdf<0.9@30" ]

(* Feed an engine a hand-built record stream and collect the
   transitions. *)
let drive rules stream =
  let wins =
    Window.set (List.map (fun (r : Alert.rule) -> r.Alert.window) rules)
  in
  let eng = Alert.engine rules in
  List.concat
    (List.map2
       (fun (r : Health.t) a ->
         Window.push_set wins a;
         Alert.observe eng wins ~epoch:r.Health.epoch)
       stream (spans stream))

let flat i detections : Health.t =
  { Health.epoch = i; arrivals = 10; detections; degraded = 0;
    worker_crashes = 0; faults = []; snapshots = 0; cycles = 100;
    cycle_skew = 1.0; store_contexts = 0; patched = 0; wall = None }

let test_alert_fire_clear () =
  let rules = Result.get_ok (Alert.parse "stall@3") in
  (* detections: 1 1 0 0 0 0 1 0 0 0 — stall = 3 consecutive zero-detection
     epochs; not before the window is full. *)
  let stream =
    List.mapi (fun i d -> flat i d) [ 1; 1; 0; 0; 0; 0; 1; 0; 0; 0 ]
  in
  let events = drive rules stream in
  Alcotest.(check (list (pair bool int)))
    "fires at 4 (first all-zero window), clears at 6, refires at 9"
    [ (true, 4); (false, 6); (true, 9) ]
    (List.map (fun (e : Alert.event) -> (e.Alert.firing, e.Alert.epoch)) events);
  (match events with
  | first :: _ ->
    Alcotest.(check int) "event window covers 3 epochs" 3
      first.Alert.window.Health.epochs;
    Alcotest.(check int) "since = fire epoch" 4 first.Alert.since
  | [] -> Alcotest.fail "no events");
  (* A rule never fires while its window is filling, even on a stream that
     would satisfy it from epoch 0. *)
  let quiet = List.init 2 (fun i -> flat i 0) in
  Alcotest.(check int) "cold start: no eligibility before the window fills" 0
    (List.length (drive rules quiet))

(* ---------- History ---------- *)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let replace_once s ~sub ~by =
  match find_sub s sub with
  | None -> Alcotest.failf "substring %S not found" sub
  | Some i ->
    String.sub s 0 i ^ by
    ^ String.sub s (i + String.length sub)
        (String.length s - i - String.length sub)

let rec replace_all s ~sub ~by =
  match find_sub s sub with
  | None -> s
  | Some i ->
    let j = i + String.length sub in
    String.sub s 0 i ^ by ^ replace_all (String.sub s j (String.length s - j)) ~sub ~by

let test_history_roundtrip_and_corruption () =
  let dir = temp_dir "csod_hist" in
  let w = History.writer ~rotate:3 dir in
  let bodies = List.init 8 (fun i -> Health.to_json (record i)) in
  List.iteri
    (fun i b ->
      let kind = if i = 0 then History.Meta else History.Health in
      Alcotest.(check int) "monotonic seq" i (History.append w kind b))
    bodies;
  History.close w;
  Alcotest.(check int) "rotation: 8 lines / 3 per segment = 3 files" 3
    (List.length (History.segments dir));
  let log = History.read dir in
  let records =
    Option.to_list log.History.meta
    @ List.map Health.to_json log.History.health
  in
  Alcotest.(check int) "all records back" 8 (List.length records);
  Alcotest.(check (list string)) "no errors" [] log.History.errors;
  List.iteri
    (fun i r ->
      Alcotest.(check string) "body round-trips, seq order"
        (Obs_json.to_string (List.nth bodies i))
        (Obs_json.to_string r))
    records;
  (* Flip one byte inside a body: the checksum must catch it, the reader
     must skip the line and keep everything else. *)
  let seg = List.nth (History.segments dir) 1 in
  let content = In_channel.with_open_text seg In_channel.input_all in
  let corrupted =
    replace_once content ~sub:"\"arrivals\":1" ~by:"\"arrivals\":9"
  in
  Out_channel.with_open_text seg (fun oc -> output_string oc corrupted);
  let log' = History.read dir in
  let errors' = log'.History.errors in
  Alcotest.(check int) "corrupt line skipped" 7
    (1 + List.length log'.History.health);
  Alcotest.(check int) "one error reported" 1 (List.length errors');
  Alcotest.(check bool) "error names the checksum" true
    (find_sub (List.hd errors') "checksum" <> None)

let test_history_resume_position () =
  let dir = temp_dir "csod_hist" in
  let w = History.writer ~rotate:4 dir in
  for i = 0 to 5 do
    ignore (History.append w History.Health (Health.to_json (record i)))
  done;
  let seq = History.seq w
  and segment = History.segment w
  and lines = History.lines_in_segment w in
  (* A crashed session appends two more lines after the checkpoint... *)
  ignore (History.append w History.Health (Health.to_json (record 6)));
  ignore (History.append w History.Health (Health.to_json (record 7)));
  History.close w;
  (* ...and the resume truncates back and rewrites them identically. *)
  History.truncate dir ~segment ~lines;
  let w' = History.writer ~rotate:4 ~seq ~segment ~lines dir in
  for i = 6 to 7 do
    ignore (History.append w' History.Health (Health.to_json (record i)))
  done;
  History.close w';
  let log = History.read dir in
  Alcotest.(check (list string)) "no errors after resume" [] log.History.errors;
  Alcotest.(check (list int)) "contiguous seqs" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.map (fun (r : Health.t) -> r.Health.epoch) log.History.health)

(* The kept prefix is rewritten whole through a tmp file and a rename:
   byte-identical to the segment's first lines, later segments gone, no
   tmp file left beside it. *)
let test_history_truncate_atomic () =
  let dir = temp_dir "csod_hist" in
  let w = History.writer ~rotate:6 dir in
  for i = 0 to 8 do
    ignore (History.append w History.Health (Health.to_json (record i)))
  done;
  History.close w;
  let seg0 = List.hd (History.segments dir) in
  let before = In_channel.with_open_bin seg0 In_channel.input_all in
  let prefix =
    String.split_on_char '\n' before
    |> List.filteri (fun i _ -> i < 4)
    |> List.map (fun l -> l ^ "\n")
    |> String.concat ""
  in
  (* A rewrite that cannot start (its tmp path is taken by a directory)
     raises and leaves the segment as it was. *)
  Unix.mkdir (seg0 ^ ".tmp") 0o755;
  Alcotest.(check bool) "blocked rewrite raises" true
    (match History.truncate dir ~segment:0 ~lines:4 with
     | () -> false
     | exception Sys_error _ -> true);
  Alcotest.(check string) "blocked rewrite keeps the segment" before
    (In_channel.with_open_bin seg0 In_channel.input_all);
  Unix.rmdir (seg0 ^ ".tmp");
  History.truncate dir ~segment:0 ~lines:4;
  Alcotest.(check string) "kept prefix byte-identical" prefix
    (In_channel.with_open_bin seg0 In_channel.input_all);
  Alcotest.(check (list string)) "only the truncated segment left"
    [ "serve-000000.jsonl" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)))

(* ---------- Serve ---------- *)

(* Synthetic executor with evidence flow (detections ramp as the store
   fills), virtual-cycle variety (skew), and periodic degradation. *)
let serve_exec ~user ~store =
  let uid = user.Workload.uid in
  let key = (uid mod 5, 7) in
  let detected = uid mod 23 = 3 || Persist.mem store key in
  if uid mod 23 = 3 then Persist.add store key;
  { Fleet.payload = ();
    detected;
    source = None;
    cycles = (100 + (uid mod 7 * 40) + if uid mod 13 = 0 then 4000 else 0);
    telemetry = None;
    degraded = uid mod 11 = 0 }

let serve_workload ?(seed = 5) users =
  Workload.make ~base_seed:seed ~burst:Workload.Wave ~wave_period:8 ~users ()

let serve_cfg ?(domains = 2) ?seed ?(epoch_size = 16)
    ?(rules = "stall@5,degraded>0.05@4,cdf<0.6@6,skew>3@4") ?checkpoint_path
    ?(checkpoint_every = 0) ~dir () =
  Serve.config ~domains ~epoch_size
    ~rules:(Result.get_ok (Alert.parse rules))
    ~windows:[ 1; 4; 16 ] ~history_dir:dir ~rotate:7
    ~status_path:(Filename.concat dir "status.json")
    ?checkpoint_path ~checkpoint_every (serve_workload ?seed 300)

let run_serve cfg ~epochs =
  match Serve.start cfg ~execute:serve_exec with
  | Error m -> Alcotest.fail m
  | Ok t ->
    let events = ref [] in
    while Serve.epoch t < epochs do
      let o = Serve.step t in
      events := List.rev_append o.Serve.events !events
    done;
    let report = Serve.finish t in
    (t, List.rev !events, report)

let read_file f = In_channel.with_open_text f In_channel.input_all

let dir_contents dir =
  History.segments dir
  |> List.map (fun p -> (Filename.basename p, read_file p))

let strip_wall json =
  match json with
  | `Assoc kvs -> (`Assoc (List.remove_assoc "wall" kvs) : Obs_json.t)
  | j -> j

let test_serve_deterministic_across_domains () =
  let runs =
    List.map
      (fun domains ->
        let dir = temp_dir "csod_serve" in
        let t, events, _ = run_serve (serve_cfg ~domains ~dir ()) ~epochs:40 in
        let status = strip_wall (Serve.status_json t) in
        (domains, dir_contents dir, events, status))
      [ 1; 2; 4 ]
  in
  match runs with
  | (_, hist1, events1, status1) :: rest ->
    Alcotest.(check bool) "the run produced history" true (hist1 <> []);
    Alcotest.(check bool) "alerts actually fired" true (events1 <> []);
    List.iter
      (fun (domains, hist, events, status) ->
        Alcotest.(check (list (pair string string)))
          (Printf.sprintf "history bytes identical at %d domains" domains)
          hist1 hist;
        Alcotest.(check (list string))
          (Printf.sprintf "alert stream identical at %d domains" domains)
          (List.map (fun e -> Obs_json.to_string (Alert.event_to_json e)) events1)
          (List.map (fun e -> Obs_json.to_string (Alert.event_to_json e)) events);
        Alcotest.(check string)
          (Printf.sprintf "status minus wall identical at %d domains" domains)
          (Obs_json.to_string status1)
          (Obs_json.to_string status))
      rest
  | [] -> assert false

let test_serve_windows_match_history_fold () =
  let dir = temp_dir "csod_serve" in
  let t, _, _ = run_serve (serve_cfg ~dir ()) ~epochs:40 in
  let log = History.read dir in
  Alcotest.(check (list string)) "clean history" [] log.History.errors;
  let os = log.History.health in
  Alcotest.(check int) "one health record per epoch" 40 (List.length os);
  (* The live rolling windows equal a from-scratch fold over the durable
     history — the dashboard's numbers are exactly reconstructible. *)
  List.iter
    (fun w ->
      Alcotest.(check (option agg_doc))
        (Printf.sprintf "window %d = fold of last %d history records" w w)
        (Some (linear_fold (last_n w (spans os))))
        (Window.get (Serve.windows t) w))
    [ 1; 4; 16 ]

let test_serve_replay_equivalence () =
  let dir = temp_dir "csod_serve" in
  let t, events, _ = run_serve (serve_cfg ~dir ()) ~epochs:40 in
  match Serve.replay dir with
  | Error m -> Alcotest.fail m
  | Ok r ->
    Alcotest.(check (list string)) "no corrupt lines" [] r.Serve.read_errors;
    Alcotest.(check (list string)) "no mismatches" [] r.Serve.mismatches;
    Alcotest.(check int) "all health records replayed" 40
      (List.length r.Serve.health);
    Alcotest.(check (list string))
      "recomputed alerts equal the live transitions"
      (List.map (fun e -> Obs_json.to_string (Alert.event_to_json e)) events)
      (List.map Obs_json.to_string r.Serve.recomputed);
    (* The offline status equals the live one on every deterministic
       field (the live one additionally carries "wall"). *)
    Alcotest.(check string) "replayed status = live status minus wall"
      (Obs_json.to_string (strip_wall (Serve.status_json t)))
      (Obs_json.to_string r.Serve.status)

let test_serve_checkpoint_resume () =
  (* Reference: one uninterrupted 40-epoch service. *)
  let ref_dir = temp_dir "csod_serve" in
  let ref_t, ref_events, _ = run_serve (serve_cfg ~dir:ref_dir ()) ~epochs:40 in
  (* Interrupted: 22 epochs, checkpoint on exit, then a second service
     resumes from the file and serves the rest. *)
  let dir = temp_dir "csod_serve" in
  let ckpt = Filename.concat dir "ckpt.json" in
  let cfg = serve_cfg ~dir ~checkpoint_path:ckpt () in
  let _, events_a, _ = run_serve cfg ~epochs:22 in
  Alcotest.(check bool) "checkpoint published" true (Sys.file_exists ckpt);
  let t, events_b, _ = run_serve cfg ~epochs:40 in
  Alcotest.(check int) "resumed service continued at epoch 22+" 40
    (Serve.epoch t);
  Alcotest.(check (list (pair string string)))
    "history bytes identical to the uninterrupted run"
    (dir_contents ref_dir) (dir_contents dir);
  Alcotest.(check (list string)) "alert transitions identical"
    (List.map (fun e -> Obs_json.to_string (Alert.event_to_json e)) ref_events)
    (List.map
       (fun e -> Obs_json.to_string (Alert.event_to_json e))
       (events_a @ events_b));
  Alcotest.(check string) "final status identical minus wall"
    (Obs_json.to_string (strip_wall (Serve.status_json ref_t)))
    (Obs_json.to_string (strip_wall (Serve.status_json t)))

(* Real executions: a fault plan (worker crashes included) and code-less
   patching, so the fault, crash and patch tallies are non-zero when the
   checkpoint is taken and keep moving after the resume. *)
let test_serve_resume_carries_tallies () =
  let app = Option.get (Buggy_app.by_name "zziplib") in
  let plan =
    Result.get_ok
      (Fault_plan.of_string "seed=9,ebusy=0.5,trap-drop=0.3,worker-crash=0.1")
  in
  let execute =
    Execution.executor ~app ~config:Config.csod_default
      ~respond:(Respond.Patch 2) ~faults:plan ()
  in
  let cfg ?checkpoint_path dir =
    Serve.config ~domains:2 ~epoch_size:16 ~faults:plan ~patch_threshold:2
      ~rules:(Result.get_ok (Alert.parse "faults>0@2,patch>0@2"))
      ~windows:[ 1; 4 ] ~history_dir:dir ~rotate:7 ?checkpoint_path
      (Workload.make ~base_seed:3 ~users:300 ())
  in
  let run cfg ~epochs =
    let t = Result.get_ok (Serve.start cfg ~execute) in
    while Serve.epoch t < epochs do ignore (Serve.step t) done;
    ignore (Serve.finish t);
    t
  in
  (* The run's tallies so far, folded over the history's records. *)
  let tallies dir =
    match Serve.replay dir with
    | Error m -> Alcotest.fail m
    | Ok r ->
      let a = List.fold_left Health.fold Health.empty r.Serve.health in
      (a.worker_crashes, a.patched, a.faults)
  in
  let ref_dir = temp_dir "csod_serve" in
  let ref_ckpt = Filename.concat ref_dir "ckpt.json" in
  let ref_t = run (cfg ~checkpoint_path:ref_ckpt ref_dir) ~epochs:24 in
  let dir = temp_dir "csod_serve" in
  let ckpt = Filename.concat dir "ckpt.json" in
  ignore (run (cfg ~checkpoint_path:ckpt dir) ~epochs:11);
  let crashes, patched, faults = tallies dir in
  Alcotest.(check bool) "crashes before the checkpoint" true (crashes > 0);
  Alcotest.(check bool) "a conviction before the checkpoint" true (patched > 0);
  Alcotest.(check bool) "faults before the checkpoint" true (faults <> []);
  let t = run (cfg ~checkpoint_path:ckpt dir) ~epochs:24 in
  let crashes', _, faults' = tallies dir in
  Alcotest.(check bool) "crashes after the resume" true (crashes' > crashes);
  Alcotest.(check bool) "faults after the resume" true (faults' <> faults);
  Alcotest.(check (list (pair string string)))
    "history bytes identical to the uninterrupted run"
    (dir_contents ref_dir) (dir_contents dir);
  Alcotest.(check string) "final checkpoint identical" (read_file ref_ckpt)
    (read_file ckpt);
  Alcotest.(check string) "final status identical minus wall"
    (Obs_json.to_string (strip_wall (Serve.status_json ref_t)))
    (Obs_json.to_string (strip_wall (Serve.status_json t)))

(* A resume that would continue another run, or a history that cannot be
   this run's, is an [Error] naming why: a 10-epoch run checkpointed on
   exit, tampered with, then resumed under another configuration. *)
let resume_refusals =
  let under ?seed ?epoch_size ?rules () ~dir ~ckpt =
    serve_cfg ?seed ?epoch_size ?rules ~dir ~checkpoint_path:ckpt ()
  in
  let untouched ~dir:_ ~ckpt:_ = () in
  let write path text =
    Out_channel.with_open_text path (fun oc -> output_string oc text)
  in
  let corrupt ~dir ~ckpt:_ =
    let seg = List.hd (History.segments dir) in
    write seg (replace_once (read_file seg) ~sub:{|"epoch":0,|} ~by:{|"epoch":9,|})
  in
  [ ("another seed", under ~seed:6 (), untouched, "workload.base_seed");
    ("another epoch size", under ~epoch_size:8 (), untouched, "epoch_size");
    ("another rule set", under ~rules:"stall@5" (), untouched, "alerts");
    ( "a history cut below the checkpoint", under (),
      (fun ~dir ~ckpt:_ -> History.truncate dir ~segment:0 ~lines:4),
      "the checkpoint 10" );
    ("a corrupt kept line", under (), corrupt, "checksum");
    ( "a /1 checkpoint", under (),
      (fun ~dir:_ ~ckpt ->
        write ckpt {|{"schema":"csod.serve.checkpoint/1","epoch":10}|}),
      "csod.serve.checkpoint/1" ) ]

let test_serve_resume_refused (_, resume_cfg, tamper, expect) () =
  let dir = temp_dir "csod_serve" in
  let ckpt = Filename.concat dir "ckpt.json" in
  ignore (run_serve (serve_cfg ~dir ~checkpoint_path:ckpt ()) ~epochs:10);
  tamper ~dir ~ckpt;
  match Serve.start (resume_cfg ~dir ~ckpt) ~execute:serve_exec with
  | Ok _ -> Alcotest.fail "the resume was accepted"
  | Error m ->
    if find_sub m expect = None then
      Alcotest.failf "error %S does not name %S" m expect

let test_serve_checkpoint_needs_history () =
  Alcotest.check_raises "a checkpoint without a history"
    (Invalid_argument "Serve.config: a checkpoint needs a history directory")
    (fun () -> ignore (Serve.config ~checkpoint_path:"ckpt.json" (serve_workload 30)))

(* [replay] takes its rules and windows from the meta record or fails
   naming the member; no default stands in.  A health body that does not
   decode is a read error, not a skipped record. *)
let test_serve_replay_meta_strict () =
  let history ?(extra = []) meta =
    let dir = temp_dir "csod_hist" in
    let w = History.writer dir in
    ignore (History.append w History.Meta meta);
    for i = 0 to 3 do
      ignore (History.append w History.Health (Health.to_json (record i)))
    done;
    List.iter (fun body -> ignore (History.append w History.Health body)) extra;
    History.close w;
    dir
  in
  let refused what meta field =
    match Serve.replay (history meta) with
    | Ok _ -> Alcotest.failf "%s: replayed" what
    | Error m ->
      if find_sub m field = None then
        Alcotest.failf "%s: error %S does not name %s" what m field
  in
  let windows = ("windows", `List [ `Int 2 ]) in
  refused "no alerts" (`Assoc [ windows ]) {|"alerts"|};
  refused "an unknown rule"
    (`Assoc [ ("alerts", `List [ `String "nosuch@3" ]); windows ])
    {|"alerts"|};
  refused "mistyped windows"
    (`Assoc [ ("alerts", `List [ `String "stall@3" ]); ("windows", `String "2") ])
    {|"windows"|};
  let meta : Obs_json.t = `Assoc [ ("alerts", `List [ `String "stall@3" ]); windows ] in
  match Serve.replay (history ~extra:[ `Assoc [ ("epoch", `String "x") ] ] meta) with
  | Error m -> Alcotest.fail m
  | Ok r ->
    Alcotest.(check string) "the meta record" (Obs_json.to_string meta)
      (Obs_json.to_string r.Serve.meta);
    Alcotest.(check int) "decoded health records" 4
      (List.length r.Serve.health);
    Alcotest.(check (list string)) "the undecodable one is a read error"
      [ "seq 5: malformed health body" ] r.Serve.read_errors

(* A fresh start into a directory that already holds a run is refused,
   and nothing there is deleted or cut. *)
let test_serve_fresh_refuses_used_history () =
  let dir = temp_dir "csod_serve" in
  ignore (run_serve (serve_cfg ~dir ()) ~epochs:5);
  let before = dir_contents dir in
  (match Serve.start (serve_cfg ~dir ()) ~execute:serve_exec with
  | Ok _ -> Alcotest.fail "a second fresh run was started"
  | Error m ->
    if find_sub m "already holds a run" = None then
      Alcotest.failf "error %S does not say why" m);
  (* Neither does a checkpoint path whose file does not exist yet. *)
  (match
     Serve.start
       (serve_cfg ~dir ~checkpoint_path:(Filename.concat dir "none.json") ())
       ~execute:serve_exec
   with
  | Ok _ -> Alcotest.fail "a fresh run with a new checkpoint was started"
  | Error _ -> ());
  Alcotest.(check (list (pair string string))) "history untouched" before
    (dir_contents dir)

(* Two runs appended into one directory (what a fresh start did before
   it refused): records past the first run are out of sequence, as the
   validator says: replay reports them (and a resume, which refuses any
   read error, refuses). *)
let test_serve_log_sequence () =
  let dir = temp_dir "csod_hist" in
  let meta : Obs_json.t =
    `Assoc [ ("alerts", `List [ `String "stall@3" ]); ("windows", `List [ `Int 2 ]) ]
  in
  for _ = 1 to 2 do
    let w = History.writer dir in
    ignore (History.append w History.Meta meta);
    for i = 0 to 4 do
      ignore (History.append w History.Health (Health.to_json (record i)))
    done;
    History.close w
  done;
  (match Schema.validate Schemas.all ~schema:"csod.serve.history/2"
           (read_file (List.hd (History.segments dir))) with
   | Ok _ -> Alcotest.fail "the validator accepted the doubled history"
   | Error e ->
     if find_sub e "seq 0, expected 6" = None then Alcotest.failf "validator: %s" e);
  match Serve.replay dir with
  | Error m -> Alcotest.fail m
  | Ok r ->
    Alcotest.(check int) "only the first run replays" 5
      (List.length r.Serve.health);
    Alcotest.(check (list string)) "every later record is a read error"
      (List.init 6 (fun i -> Printf.sprintf "seq %d, expected 6" i))
      r.Serve.read_errors

(* The service and the fleet write the same epoch record: a file-less
   service's records equal Fleet.run's minus their wall, field for field,
   and the epochs' counts are their seats' — also when the service is
   checkpointed at epoch 7 and resumed. *)
let test_serve_counts_fleet_epochs () =
  let app = Option.get (Buggy_app.by_name "zziplib") in
  let plan =
    Result.get_ok
      (Fault_plan.of_string "seed=9,ebusy=0.5,trap-drop=0.3,worker-crash=0.1")
  in
  let execute =
    Execution.executor ~app ~config:Config.csod_default
      ~respond:(Respond.Patch 2) ~faults:plan ()
  in
  let w = Workload.make ~base_seed:3 ~users:300 () in
  let r =
    Fleet.run
      (Fleet.config ~domains:2 ~epoch_size:16 ~faults:plan ~patch_threshold:2 w)
      ~execute
  in
  let epochs = List.length r.Fleet.health in
  let serve ?checkpoint_path ?history_dir () =
    Serve.config ~domains:2 ~epoch_size:16 ~faults:plan ~patch_threshold:2
      ?history_dir ?checkpoint_path w
  in
  let steps cfg ~until =
    let t = Result.get_ok (Serve.start cfg ~execute) in
    let os = List.init (until - Serve.epoch t) (fun _ -> (Serve.step t).Serve.record) in
    ignore (Serve.finish t);
    os
  in
  let seats e f =
    Array.fold_left
      (fun c (s : _ Fleet.seat) -> if s.epoch = e then c + f s.exec else c)
      0 r.Fleet.seats
  in
  let check label os =
    Alcotest.(check int) (label ^ ": one record per epoch") epochs
      (List.length os);
    List.iter2
      (fun (o : Health.t) (s : Health.t) ->
        let at = Printf.sprintf "%s, epoch %d" label s.epoch in
        Alcotest.(check string) (at ^ ": the fleet's record minus wall")
          (Obs_json.to_string (Health.to_json { s with wall = None }))
          (Obs_json.to_string (Health.to_json o));
        Alcotest.(check (list int)) (at ^ ": the epoch's seats")
          [ seats s.epoch (fun _ -> 1);
            seats s.epoch (fun x -> Bool.to_int x.detected);
            seats s.epoch (fun x -> x.cycles) ]
          [ o.arrivals; o.detections; o.cycles ])
      os r.Fleet.health;
    Alcotest.(check int) (label ^ ": the fold's detections are the report's")
      r.Fleet.detections
      (List.fold_left Health.fold Health.empty os).detections
  in
  let whole = steps (serve ()) ~until:epochs in
  check "file-less" whole;
  let total = List.fold_left Health.fold Health.empty whole in
  Alcotest.(check bool) "the tallies move" true
    (total.worker_crashes > 0 && total.patched > 0 && total.faults <> []
    && total.arrivals = 300);
  let dir = temp_dir "csod_serve" in
  let cfg = serve ~history_dir:dir ~checkpoint_path:(Filename.concat dir "ckpt.json") () in
  let first = steps cfg ~until:7 in
  check "resumed at epoch 7" (first @ steps cfg ~until:epochs)

(* A health body without [patched] does not decode, and a history line
   carrying one does not validate. *)
let test_serve_obs_requires_patched () =
  let without =
    match Health.to_json (record 3) with
    | `Assoc kvs -> `Assoc (List.remove_assoc "patched" kvs)
    | j -> j
  in
  Alcotest.(check bool) "the record decodes with patched" true
    (Health.of_json (Health.to_json (record 3)) = Ok (record 3));
  Alcotest.(check bool) "not without" true (Result.is_error (Health.of_json without));
  let dir = temp_dir "csod_hist" in
  let w = History.writer dir in
  ignore (History.append w History.Health without);
  History.close w;
  match
    Schema.validate Schemas.all ~schema:"csod.serve.history/2"
      (read_file (List.hd (History.segments dir)))
  with
  | Ok _ -> Alcotest.fail "a health line without patched validated"
  | Error e ->
    if find_sub e "malformed health body" = None then
      Alcotest.failf "validator: %s" e

(* A history written under the /1 tag is refused, by name, by [replay]
   and by a resume: its records are read, never reinterpreted. *)
let test_serve_refuses_history_1 () =
  let dir = temp_dir "csod_serve" in
  let ckpt = Filename.concat dir "ckpt.json" in
  ignore (run_serve (serve_cfg ~dir ~checkpoint_path:ckpt ()) ~epochs:6);
  List.iter
    (fun seg ->
      let retagged =
        replace_all (read_file seg) ~sub:"csod.serve.history/2" ~by:"csod.serve.history/1"
      in
      Out_channel.with_open_bin seg (fun oc -> output_string oc retagged))
    (History.segments dir);
  let names what = function
    | Ok _ -> Alcotest.failf "%s: accepted a /1 history" what
    | Error m ->
      if find_sub m "csod.serve.history/1" = None then
        Alcotest.failf "%s: error %S does not name csod.serve.history/1" what m
  in
  names "replay" (Result.map ignore (Serve.replay dir));
  names "resume"
    (Result.map ignore
       (Serve.start (serve_cfg ~dir ~checkpoint_path:ckpt ()) ~execute:serve_exec))

let test_serve_population_drain () =
  (* A tiny population drains quickly; the service keeps stepping an idle
     fleet (0 arrivals) without dividing by zero or firing spurious
     degradation alerts, and the stall rule eventually fires. *)
  let dir = temp_dir "csod_serve" in
  let cfg =
    Serve.config ~domains:2 ~epoch_size:16
      ~rules:(Result.get_ok (Alert.parse "stall@4"))
      ~windows:[ 1; 4 ] ~history_dir:dir (serve_workload 30)
  in
  let t, events, _ = run_serve cfg ~epochs:12 in
  Alcotest.(check int) "population fully admitted" 30 (Serve.arrived t);
  (match Serve.last t with
  | Some r ->
    Alcotest.(check int) "idle epochs admit nobody" 0 r.Health.arrivals;
    Alcotest.(check bool) "virtual clock still advances monotonically" true
      (Schema.float (Serve.status_json t) "virtual_seconds" >= 0.0)
  | None -> Alcotest.fail "no record");
  Alcotest.(check bool) "stall fired once the fleet went quiet" true
    (List.exists (fun (e : Alert.event) -> e.Alert.firing) events)

(* Everything the service writes validates against its spec: each history
   segment (later ones start mid-stream), the alert events, the status
   file, the checkpoint and the lean fleet report. *)
let test_serve_outputs_match_specs () =
  let dir = temp_dir "csod_serve" in
  let ckpt = Filename.concat dir "ckpt.json" in
  let _, events, report =
    run_serve (serve_cfg ~dir ~checkpoint_path:ckpt ()) ~epochs:40
  in
  let valid spec text =
    match Schema.validate Schemas.all ~schema:(Schema.name spec) text with
    | Ok n -> n
    | Error e -> Alcotest.failf "%s: %s" (Schema.name spec) e
  in
  let segments = History.segments dir in
  Alcotest.(check bool) "history rotated" true (List.length segments > 1);
  List.iter (fun p -> ignore (valid History.spec (read_file p))) segments;
  Alcotest.(check bool) "alerts fired" true (events <> []);
  Alcotest.(check int) "alert stream" (List.length events)
    (valid Alert.spec
       (String.concat ""
          (List.map
             (fun e -> Obs_json.to_string (Alert.event_to_json e) ^ "\n")
             events)));
  Alcotest.(check int) "status" 1
    (valid Serve.status_spec (read_file (Filename.concat dir "status.json")));
  Alcotest.(check int) "checkpoint" 1 (valid Serve.checkpoint_spec (read_file ckpt));
  Alcotest.(check int) "fleet report" 1
    (valid Fleet.report_spec
       (Obs_json.to_string (Fleet.to_json ~app:"synthetic" ~config:"test" report)
       ^ "\n"))

(* ---------- status cadence ---------- *)

let read_status path =
  match Obs_json.of_string (String.trim (read_file path)) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" path e

(* Fast epochs refresh at most once per [status_period] of wall time, the
   first barrier always refreshes, and [finish] still leaves the final
   state in the file. *)
let test_serve_status_paced () =
  let dir = temp_dir "csod_serve" in
  let t0 = Unix.gettimeofday () in
  match Serve.start (serve_cfg ~dir ()) ~execute:serve_exec with
  | Error m -> Alcotest.fail m
  | Ok t ->
    let refreshes = ref 0 and first = ref None in
    while Serve.epoch t < 300 do
      let o = Serve.step t in
      if !first = None then first := Some o.Serve.refreshed;
      if o.Serve.refreshed then incr refreshes
    done;
    let elapsed = Unix.gettimeofday () -. t0 in
    ignore (Serve.finish t);
    Alcotest.(check (option bool)) "the first barrier refreshes" (Some true)
      !first;
    let bound = 2 + int_of_float (elapsed /. Serve.status_period) in
    if !refreshes < 1 || !refreshes > bound then
      Alcotest.failf "%d refreshes in %.3f s (bound %d)" !refreshes elapsed
        bound;
    let status = read_status (Filename.concat dir "status.json") in
    Alcotest.(check (option int)) "the file holds the final epoch" (Some 300)
      (Option.bind (Obs_json.member "epoch" status) Obs_json.to_int);
    Alcotest.(check string) "status file = status_json minus wall"
      (Obs_json.to_string (strip_wall (Serve.status_json t)))
      (Obs_json.to_string (strip_wall status))

(* Epochs slower than [status_period] refresh at every barrier. *)
let test_serve_slow_epochs_refresh () =
  let cfg =
    Serve.config ~domains:1 ~epoch_size:1
      (Workload.make ~burst:Workload.Steady ~users:3 ())
  in
  let execute ~user ~store =
    Unix.sleepf (Serve.status_period +. 0.01);
    serve_exec ~user ~store
  in
  match Serve.start cfg ~execute with
  | Error m -> Alcotest.fail m
  | Ok t ->
    let flags = List.init 3 (fun _ -> (Serve.step t).Serve.refreshed) in
    ignore (Serve.finish t);
    Alcotest.(check (list bool)) "every barrier refreshes" [ true; true; true ]
      flags

let test_serve_resume_refreshes () =
  let dir = temp_dir "csod_serve" in
  let cfg =
    serve_cfg ~dir ~checkpoint_path:(Filename.concat dir "ckpt.json") ()
  in
  ignore (run_serve cfg ~epochs:5);
  match Serve.start cfg ~execute:serve_exec with
  | Error m -> Alcotest.fail m
  | Ok t ->
    Alcotest.(check int) "resumed" 5 (Serve.epoch t);
    let o = Serve.step t in
    ignore (Serve.finish t);
    Alcotest.(check bool) "the first resumed barrier refreshes" true
      o.Serve.refreshed

(* A status path that is a non-empty directory cannot be renamed onto:
   the error reaches the caller and no PATH.tmp is left behind. *)
let test_serve_failed_publication_cleans_up () =
  let dir = temp_dir "csod_serve" in
  let status = Filename.concat dir "status" in
  Sys.mkdir status 0o755;
  Out_channel.with_open_text (Filename.concat status "keep") ignore;
  let cfg = Serve.config ~domains:1 ~status_path:status (serve_workload 30) in
  match Serve.start cfg ~execute:serve_exec with
  | Error m -> Alcotest.fail m
  | Ok t ->
    (match Serve.finish t with
    | _ -> Alcotest.fail "publishing onto a directory succeeded"
    | exception Sys_error _ -> ());
    Alcotest.(check bool) "no tmp file left" false
      (Sys.file_exists (status ^ ".tmp"));
    Alcotest.(check bool) "the directory is untouched" true
      (Sys.file_exists (Filename.concat status "keep"))

(* A resumed [serve]'s fleet saw only the epochs since the resume, and its
   summary says so. *)
let test_cli_resume_first_catch () =
  let dir = temp_dir "csod_serve" in
  let serve epochs =
    let out = Filename.concat dir "out" in
    let code =
      Sys.command
        (Filename.quote_command "../bin/csod_run.exe" ~stdout:out
           [ "serve"; "zziplib"; "--users"; "3000"; "--epochs"; epochs;
             "--history"; Filename.concat dir "hist"; "--checkpoint";
             Filename.concat dir "ckpt.json"; "--no-color" ])
    in
    Alcotest.(check int) ("exit code, --epochs " ^ epochs) 0 code;
    read_file out
  in
  let first = serve "4" and resumed = serve "8" in
  Alcotest.(check bool) "the run's first catch" true
    (find_sub first "first catch: user #" <> None);
  Alcotest.(check bool) "the resumed session's, labelled" true
    (find_sub resumed "first catch since the resume: user #" <> None);
  Alcotest.(check bool) "not passed off as the run's" true
    (find_sub resumed "first catch: " = None)

(* [serve --live] repaints on the status refreshes, not at every barrier. *)
let test_cli_live_paced () =
  let out = Filename.temp_file "csod_live" ".out" in
  let t0 = Unix.gettimeofday () in
  let code =
    Sys.command
      (Filename.quote_command "../bin/csod_run.exe" ~stdout:out
         [ "serve"; "zziplib"; "--users"; "3000"; "--epochs"; "200"; "--live";
           "--no-color" ])
  in
  let wall = Unix.gettimeofday () -. t0 in
  let text = read_file out in
  Alcotest.(check int) "exit code" 0 code;
  let dashboards =
    String.split_on_char '\n' text
    |> List.filter (String.starts_with ~prefix:"csod serve  epoch")
    |> List.length
  in
  let bound = 2 + int_of_float (wall /. Serve.status_period) in
  if dashboards < 1 || dashboards > bound then
    Alcotest.failf "%d dashboards in %.3f s (bound %d)" dashboards wall bound;
  Alcotest.(check bool) "the summary reports 200 epochs" true
    (find_sub text "served 200 epochs:" <> None)

let suite =
  [ Alcotest.test_case "window: ring = from-scratch fold" `Quick
      test_window_ring_equals_fold;
    Alcotest.test_case "window: merge identity and associativity" `Quick
      test_window_merge_properties;
    Alcotest.test_case "window: agg JSON round-trip" `Quick
      test_window_agg_json_roundtrip;
    Alcotest.test_case "alert: spec grammar" `Quick test_alert_parse;
    Alcotest.test_case "alert: fire/clear transitions" `Quick
      test_alert_fire_clear;
    Alcotest.test_case "history: round-trip, rotation, corruption" `Quick
      test_history_roundtrip_and_corruption;
    Alcotest.test_case "history: resume position and truncation" `Quick
      test_history_resume_position;
    Alcotest.test_case "history: truncate rewrites atomically" `Quick
      test_history_truncate_atomic;
    Alcotest.test_case "serve: bit-identical across domains" `Slow
      test_serve_deterministic_across_domains;
    Alcotest.test_case "serve: windows = fold of durable history" `Quick
      test_serve_windows_match_history_fold;
    Alcotest.test_case "serve: offline replay equivalence" `Quick
      test_serve_replay_equivalence;
    Alcotest.test_case "serve: checkpoint resume, same stream" `Slow
      test_serve_checkpoint_resume;
    Alcotest.test_case "serve: resume carries fault, crash and patch tallies"
      `Quick test_serve_resume_carries_tallies;
    Alcotest.test_case "serve: a checkpoint needs a history" `Quick
      test_serve_checkpoint_needs_history;
    Alcotest.test_case "serve: replay reads its configuration strictly" `Quick
      test_serve_replay_meta_strict;
    Alcotest.test_case "serve: resumed first catch labelled" `Quick
      test_cli_resume_first_catch;
    Alcotest.test_case "serve: a fresh start refuses a used history" `Quick
      test_serve_fresh_refuses_used_history;
    Alcotest.test_case "serve: replay reads the log in sequence" `Quick
      test_serve_log_sequence;
    Alcotest.test_case "serve: counts the fleet's epochs" `Quick
      test_serve_counts_fleet_epochs;
    Alcotest.test_case "serve obs: patched is required" `Quick
      test_serve_obs_requires_patched;
    Alcotest.test_case "serve: a /1 history is refused by name" `Quick
      test_serve_refuses_history_1;
    Alcotest.test_case "serve: population drain and idle epochs" `Quick
      test_serve_population_drain;
    Alcotest.test_case "serve: outputs match their specs" `Quick
      test_serve_outputs_match_specs;
    Alcotest.test_case "serve: status refreshes paced by wall time" `Quick
      test_serve_status_paced;
    Alcotest.test_case "serve: slow epochs refresh at every barrier" `Quick
      test_serve_slow_epochs_refresh;
    Alcotest.test_case "serve: a resumed service refreshes at once" `Quick
      test_serve_resume_refreshes;
    Alcotest.test_case "serve: failed publication leaves no tmp file" `Quick
      test_serve_failed_publication_cleans_up;
    Alcotest.test_case "serve: cli --live repaints on refreshes" `Quick
      test_cli_live_paced ]
  @ List.map
      (fun ((what, _, _, _) as case) ->
        Alcotest.test_case ("serve: resume refused, " ^ what) `Quick
          (test_serve_resume_refused case))
      resume_refusals
