(* The csod_run binary's error contract: a file flag naming a path that
   cannot be read or written ends the command with one "csod_run: PATH:
   reason" line on stderr and exit 1, before any work (nothing on stdout),
   never with cmdliner's "internal error"; a numeric flag out of its range,
   or flags that do not go together, are a usage error (exit 124, nothing
   on stdout); and every subcommand
   that takes an application names an unknown one the same way. *)

let read_file f = In_channel.with_open_text f In_channel.input_all

(* [f dir] in a fresh directory holding [adir/] (a directory) and [afile]
   (a file), removed afterwards. *)
let in_fresh_dir f =
  let dir = Filename.temp_file "csod_cli" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Unix.mkdir (Filename.concat dir "adir") 0o755;
  Out_channel.with_open_text (Filename.concat dir "afile") ignore;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

(* [csod_run args] in [dir]: exit code, stdout, stderr. *)
let csod_run_in dir args =
  let out = Filename.concat dir "stdout" and err = Filename.concat dir "stderr" in
  let exe = Filename.concat (Sys.getcwd ()) "../bin/csod_run.exe" in
  let code =
    Sys.command
      (Printf.sprintf "cd %s && %s" (Filename.quote dir)
         (Filename.quote_command exe ~stdin:"/dev/null" ~stdout:out ~stderr:err args))
  in
  (code, read_file out, read_file err)

let csod_run args = in_fresh_dir (fun dir -> csod_run_in dir args)

let demo = Filename.concat (Sys.getcwd ()) "../examples/demo.mc"
let missing = "/nonexistent-csod-dir/x"

(* Every file flag with a bad path, and the reason its line must give. *)
let bad_paths =
  let under_missing = "No such file or directory" in
  [ ([ "run"; "gzip"; "--events"; missing ], under_missing);
    ([ "run"; "gzip"; "--trace-out"; missing ], under_missing);
    ([ "run"; "gzip"; "--metrics-json"; missing ], under_missing);
    ([ "run"; "gzip"; "--store"; missing ], under_missing);
    ([ "exec"; demo; "--events"; missing ], under_missing);
    ([ "exec"; demo; "--trace-out"; missing ], under_missing);
    ([ "exec"; demo; "--metrics-json"; missing ], under_missing);
    ([ "exec"; demo; "--store"; missing ], under_missing);
    ([ "explain"; "gzip"; "--trace-out"; missing ], under_missing);
    ([ "fleet"; "zziplib"; "--users"; "10"; "--live=" ^ missing ], under_missing);
    ([ "fleet"; "zziplib"; "--users"; "10"; "--trace-out"; missing ], under_missing);
    ([ "fleet"; "zziplib"; "--users"; "10"; "--store"; missing ], under_missing);
    ([ "serve"; "zziplib"; "--epochs"; "2"; "--status-file"; missing ], under_missing);
    ([ "serve"; "zziplib"; "--epochs"; "2"; "--history"; "adir"; "--checkpoint"; missing ],
     under_missing);
    ([ "serve"; "zziplib"; "--epochs"; "2"; "--history"; missing ], under_missing);
    ([ "sim"; "--runs"; "1"; "--out"; missing ], under_missing);
    ([ "validate"; missing ], under_missing);
    ([ "serve"; "zziplib"; "--epochs"; "2"; "--alerts-file"; missing ], under_missing);
    ([ "sim"; "--replay"; missing ], under_missing);
    ([ "validate"; "adir" ], "Is a directory");
    ([ "top"; "adir" ], "Is a directory");
    ([ "run"; "gzip"; "--store"; "adir" ], "Is a directory");
    ([ "exec"; "adir" ], "Is a directory");
    ([ "serve"; "zziplib"; "--epochs"; "2"; "--status-file"; "adir" ], "Is a directory");
    ([ "serve"; "zziplib"; "--epochs"; "2"; "--history"; "afile" ], "Not a directory") ]

let test_bad_path_fails_cleanly (args, reason) () =
  let code, out, err = csod_run args in
  let cmd = String.concat " " args in
  let path = List.nth args (List.length args - 1) in
  let path =
    match String.index_opt path '=' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  Alcotest.(check int) (cmd ^ ": exit code") 1 code;
  Alcotest.(check string) (cmd ^ ": stderr")
    (Printf.sprintf "csod_run: %s: %s\n" path reason)
    err;
  Alcotest.(check string) (cmd ^ ": no work done") "" out

(* A fresh serve into a history directory that already holds a run is
   refused before any work, and the run already there is left as it was. *)
let test_serve_refuses_used_history () =
  in_fresh_dir (fun dir ->
      let args =
        [ "serve"; "gzip"; "--users"; "300"; "--epochs"; "5"; "--epoch"; "2";
          "--history"; "dup" ]
      in
      let code, _, _ = csod_run_in dir args in
      Alcotest.(check int) "first run" 0 code;
      let segment = Filename.concat dir "dup/serve-000000.jsonl" in
      let before = read_file segment in
      let code, out, err = csod_run_in dir args in
      Alcotest.(check int) "second run: exit code" 1 code;
      Alcotest.(check string) "second run: no work done" "" out;
      Alcotest.(check string) "second run: stderr"
        "serve: history dup already holds a run and no checkpoint resumes it: \
         a fresh run would append a second one\n"
        err;
      Alcotest.(check string) "the first run's history is untouched" before
        (read_file segment);
      Alcotest.(check (list string)) "no second segment" [ "serve-000000.jsonl" ]
        (Array.to_list (Sys.readdir (Filename.concat dir "dup"))))

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Audits fail closed: a history segment with a copy of itself appended
   replays its first run and lists the copy's lines, but [replay] exits 1
   and never says the alert stream matches; [validate] refuses it too. *)
let test_replay_fails_on_doubled_history () =
  in_fresh_dir (fun dir ->
      let code, _, _ =
        csod_run_in dir
          [ "serve"; "gzip"; "--users"; "300"; "--epochs"; "5"; "--epoch"; "2";
            "--history"; "h" ]
      in
      Alcotest.(check int) "serve" 0 code;
      let segment = Filename.concat dir "h/serve-000000.jsonl" in
      let code, intact, _ = csod_run_in dir [ "replay"; "h"; "--no-color" ] in
      Alcotest.(check int) "intact history replays" 0 code;
      Alcotest.(check bool) "intact history matches" true
        (find_sub intact "matches the recorded one");
      let text = read_file segment in
      Out_channel.with_open_bin segment (fun oc -> output_string oc (text ^ text));
      let code, out, err = csod_run_in dir [ "replay"; "h"; "--no-color" ] in
      Alcotest.(check int) "replay: exit code" 1 code;
      Alcotest.(check bool) "replay prints what it read" true
        (find_sub out "history: 5 health records");
      Alcotest.(check bool) "no match claimed" false
        (find_sub out "matches the recorded one");
      Alcotest.(check bool) "the copy's lines listed" true
        (find_sub err "corrupt: seq 0, expected 6");
      let code, _, _ =
        csod_run_in dir
          [ "validate"; "--schema"; "csod.serve.history/1"; "h/serve-000000.jsonl" ]
      in
      Alcotest.(check int) "validate: exit code" 1 code)

(* A repro file whose last record lost its newline: that record is torn,
   never replayed, and the replay fails. *)
let test_sim_replay_torn_record () =
  in_fresh_dir (fun dir ->
      let planted =
        read_file (Filename.concat (Sys.getcwd ()) "../examples/sim/planted.repro.jsonl")
      in
      Out_channel.with_open_bin (Filename.concat dir "torn.jsonl") (fun oc ->
          output_string oc (String.sub planted 0 (String.length planted - 1)));
      let code, out, _ = csod_run_in dir [ "sim"; "--replay"; "torn.jsonl" ] in
      Alcotest.(check int) "exit code" 1 code;
      Alcotest.(check bool) "first record replays" true (find_sub out "record 1: ok");
      Alcotest.(check bool) "torn record fails" true
        (find_sub out "record 2: FAIL truncated final line"))

let test_unknown_app () =
  List.iter
    (fun sub ->
      let code, out, err = csod_run [ sub; "nosuchapp" ] in
      Alcotest.(check int) (sub ^ ": exit code") 1 code;
      Alcotest.(check string) (sub ^ ": stderr")
        "unknown application \"nosuchapp\"; try 'csod_run list'\n" err;
      Alcotest.(check string) (sub ^ ": stdout") "" out)
    [ "run"; "explain"; "fleet"; "serve" ]

(* Every numeric flag a library constructor would refuse, with a value
   outside its range: the flag is the last argument. *)
let bad_numbers =
  [ [ "fleet"; "zziplib"; "--users=-5" ];
    [ "fleet"; "zziplib"; "--epoch"; "0" ];
    [ "fleet"; "zziplib"; "--benign-frac"; "2" ];
    [ "fleet"; "zziplib"; "--domains"; "0" ];
    [ "fleet"; "zziplib"; "--wave-period"; "0" ];
    [ "serve"; "zziplib"; "--epochs"; "1"; "--epoch"; "0" ];
    [ "serve"; "zziplib"; "--epochs"; "1"; "--rotate"; "0" ];
    [ "serve"; "zziplib"; "--epochs"; "1"; "--checkpoint-every=-1" ];
    [ "run"; "zziplib"; "--runs"; "0" ];
    [ "run"; "zziplib"; "--runs=-3" ];
    [ "run"; "zziplib"; "--events"; "afile"; "--snapshot-sec=-1" ];
    [ "run"; "zziplib"; "--events"; "afile"; "--snapshot-sec"; "0" ];
    [ "run"; "zziplib"; "--events"; "afile"; "--snapshot-sec"; "nan" ];
    [ "run"; "zziplib"; "--events"; "afile"; "--snapshot-sec"; "inf" ];
    [ "run"; "zziplib"; "--events"; "afile"; "--snapshot-sec"; "1e-12" ];
    [ "run"; "zziplib"; "--events"; "afile"; "--snapshot-sec"; "1e300" ];
    [ "exec"; demo; "--events"; "afile"; "--snapshot-sec=-0.5" ] ]

(* Flags that are each in range but do not go together, also usage errors:
   a label and the command line. *)
let bad_combinations =
  [ ( "run --snapshot-sec without --events",
      [ "run"; "zziplib"; "--snapshot-sec"; "0.001" ] );
    ( "exec --snapshot-sec without --events",
      [ "exec"; demo; "--snapshot-sec"; "0.001" ] );
    ( "run --respond with --tool none",
      [ "run"; "zziplib"; "--tool"; "none"; "--respond"; "oblivious"; "--runs"; "3" ] );
    ( "exec --respond with --tool none",
      [ "exec"; demo; "--input"; "12"; "--tool"; "none"; "--respond"; "patch" ] );
    ( "serve --checkpoint-every without --checkpoint",
      [ "serve"; "zziplib"; "--users"; "300"; "--epochs"; "5"; "--checkpoint-every"; "2" ] );
    ( "serve --checkpoint without --history",
      [ "serve"; "zziplib"; "--epochs"; "2"; "--checkpoint"; "afile" ] ) ]

let test_bad_number_is_usage_error args () =
  let code, out, err = csod_run args in
  let cmd = String.concat " " args in
  Alcotest.(check int) (cmd ^ ": exit code") 124 code;
  Alcotest.(check string) (cmd ^ ": no work done") "" out;
  Alcotest.(check bool) (cmd ^ ": not an internal error") false
    (String.starts_with ~prefix:"csod_run: internal error" err)

(* "bad path: serve --history, a file": the subcommand, the flag (FILE for
   a positional) and what its path is. *)
let label (args, reason) =
  let rev = List.rev args in
  let last = List.hd rev in
  let flag =
    match String.index_opt last '=' with
    | Some i -> String.sub last 0 i
    | None -> (
      match rev with
      | _ :: f :: _ when String.starts_with ~prefix:"--" f -> f
      | _ -> "FILE")
  in
  Printf.sprintf "bad path: %s %s, %s" (List.hd args) flag
    (match reason with
    | "Is a directory" -> "a directory"
    | "Not a directory" -> "a file"
    | _ -> "under a missing directory")

let suite =
  List.map
    (fun case ->
      Alcotest.test_case (label case) `Quick (test_bad_path_fails_cleanly case))
    bad_paths
  @ List.map
      (fun args ->
        let rev = List.rev args in
        let flag, value =
          match String.index_opt (List.hd rev) '=' with
          | Some i ->
            let a = List.hd rev in
            (String.sub a 0 i, String.sub a (i + 1) (String.length a - i - 1))
          | None -> (List.nth rev 1, List.hd rev)
        in
        Alcotest.test_case
          (Printf.sprintf "bad number: %s %s %s" (List.hd args) flag value)
          `Quick (test_bad_number_is_usage_error args))
      bad_numbers
  @ List.map
      (fun (name, args) ->
        Alcotest.test_case ("usage: " ^ name) `Quick (test_bad_number_is_usage_error args))
      bad_combinations
  @ [ Alcotest.test_case "unknown application, one message" `Quick
        test_unknown_app;
      Alcotest.test_case "serve refuses a history that holds a run" `Quick
        test_serve_refuses_used_history;
      Alcotest.test_case "replay fails on a doubled history" `Quick
        test_replay_fails_on_doubled_history;
      Alcotest.test_case "sim --replay fails a torn record" `Quick
        test_sim_replay_torn_record ]
