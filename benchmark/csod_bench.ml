(* The repository benchmark.  See README.md in this directory.

     csod_bench measure --workload W --seed N --seconds S --trace 0|1
       [--quick] [--out DIR] [--spec FILE]
     csod_bench run --out DIR [--seed N] [--seconds S] [--quick] [--spec FILE]
     csod_bench compare --parent FILE... --change FILE... [--spec FILE]

   [measure] runs one workload in one pass and prints, as its last line,
   {"correct", "attempted", "failed", "metrics"}.  [run] runs every
   workload, both passes, each in a process of its own.  [compare] judges
   result files of two commits. *)

let schema = "csod.benchmark.row/1"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("csod_bench: " ^ s); exit 2) fmt

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let load_spec path =
  match Spec.load path with Ok s -> s | Error e -> die "%s: %s" path e

let value_json unit_ v : Obs_json.t =
  if unit_ = "count" && Float.is_integer v then `Int (int_of_float v) else `Float v

let metrics_json metrics : Obs_json.t =
  `Assoc
    (List.map
       (fun (n, v, u) -> (n, `Assoc [ ("value", value_json u v); ("unit", `String u) ]))
       metrics)

(* ---- measure ---- *)

(* Scratch space for serve files and stores, removed at exit. *)
let work = ".csod_bench_work"

let measure ~spec_path ~workload ~seed ~seconds ~traced ~quick ~out =
  let spec = load_spec spec_path in
  let w =
    match Workloads.find workload with
    | Some w when List.mem workload spec.Spec.workloads -> w
    | _ -> die "unknown workload %S" workload
  in
  mkdir_p work;
  let s =
    { Measure.workload = w; seed; seconds; quick;
      keep_spans = (if out = None then 0 else 20_000); work }
  in
  let r = if traced then Measure.layer_metrics s else Measure.end_to_end s in
  Workloads.remove_tree work;
  let problems = r.Measure.problems @ Spec.validate spec ~traced r.Measure.metrics in
  let correct = r.Measure.correct && problems = [] in
  List.iter (fun p -> prerr_endline ("csod_bench: " ^ p)) problems;
  Printf.printf "%s seed %d %s pass: %d executions, %d failed, sim_digest %s\n" workload
    seed (if traced then "traced" else "untraced") r.Measure.attempted r.Measure.failed
    (Workloads.H.hex r.Measure.digest);
  List.iter (fun (n, v, u) -> Printf.printf "  %-24s %16.6g %s\n" n v u) r.Measure.metrics;
  List.iter (fun (n, v) -> Printf.printf "  (%s %.6g)\n" n v) r.Measure.diagnostics;
  Option.iter
    (fun dir ->
      mkdir_p dir;
      let row : Obs_json.t =
        `Assoc
          [ ("schema", `String schema); ("workload", `String workload);
            ("seed", `Int seed); ("trace", `Int (Bool.to_int traced));
            ("quick", `Bool quick); ("seconds", `Float seconds);
            ("correct", `Bool correct); ("attempted", `Int r.Measure.attempted);
            ("failed", `Int r.Measure.failed);
            ("sim_digest", `String (Workloads.H.hex r.Measure.digest));
            ("metrics", metrics_json r.Measure.metrics);
            ("trials",
             `Assoc
               (List.map
                  (fun (n, vs) -> (n, `List (List.map (fun v -> `Float v) vs)))
                  r.Measure.trials));
            ("diagnostics",
             `Assoc (List.map (fun (n, v) -> (n, `Float v)) r.Measure.diagnostics));
            ("problems", `List (List.map (fun p -> `String p) problems)) ]
      in
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644
        (Filename.concat dir "results.jsonl") (fun oc ->
          output_string oc (Obs_json.to_string row ^ "\n"));
      Option.iter
        (fun trace ->
          let file = Filename.concat dir (Printf.sprintf "trace-%s.json" workload) in
          Out_channel.with_open_text file (fun oc -> output_string oc trace);
          Printf.printf "trace written to %s\n" file)
        r.Measure.trace)
    out;
  print_endline
    (Obs_json.to_string
       (`Assoc
         [ ("correct", `Bool correct); ("attempted", `Int r.Measure.attempted);
           ("failed", `Int r.Measure.failed);
           ("metrics", metrics_json r.Measure.metrics) ]));
  exit (if correct then 0 else 1)

(* ---- run ---- *)

let run ~spec_path ~seed ~seconds ~quick ~out =
  let spec = load_spec spec_path in
  mkdir_p out;
  let rows = Filename.concat out "results.jsonl" in
  if Sys.file_exists rows then Sys.remove rows;
  let failures = ref 0 in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let log = Filename.concat out (Printf.sprintf "%s-trace%d.log" workload trace) in
          let args =
            [ Sys.executable_name; "measure"; "--workload"; workload; "--seed";
              string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds; "--trace";
              string_of_int trace; "--out"; out; "--spec"; spec_path ]
            @ if quick then [ "--quick" ] else []
          in
          let fd = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
          let pid =
            Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin fd
              Unix.stderr
          in
          Unix.close fd;
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ ->
            incr failures;
            Printf.printf "%s --trace %d FAILED (see %s)\n%!" workload trace log)
        [ 0; 1 ])
    spec.Spec.workloads;
  let rows = Compare.read rows in
  (* The two passes of a workload take their reference trials by
     different paths, in different processes: they must agree. *)
  List.iter
    (fun workload ->
      match List.filter (fun r -> r.Compare.workload = workload) rows with
      | [ a; b ] when a.Compare.digest <> b.Compare.digest ->
        incr failures;
        Printf.printf "%s: sim_digest differs between passes (%s, %s)\n" workload
          a.Compare.digest b.Compare.digest
      | _ -> ())
    spec.Spec.workloads;
  List.iter
    (fun (r : Compare.row) ->
      Printf.printf "\n%s (%s pass, seed %d, sim_digest %s)\n" r.Compare.workload
        (if r.Compare.traced then "traced" else "untraced")
        r.Compare.seed r.Compare.digest;
      List.iter
        (fun (n, v, u) -> Printf.printf "  %-24s %16.6g %s\n" n v u)
        r.Compare.values)
    rows;
  Printf.printf "\nresults in %s\n" (Filename.concat out "results.jsonl");
  exit (if !failures = 0 then 0 else 1)

(* ---- command line ---- *)

let () =
  let spec_path = ref "BENCHMARK.json" and seed = ref 1 and seconds = ref 15. in
  let workload = ref "" and trace = ref (-1) and quick = ref false in
  let out = ref None in
  let parent = ref [] and change = ref [] in
  let common =
    [ ("--spec", Arg.Set_string spec_path, "FILE  BENCHMARK.json to validate against");
      ("--seed", Arg.Set_int seed, "N  workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measuring time per pass (default 15)");
      ("--quick", Arg.Set quick, " 1/50 of the executions per trial (smoke test)");
      ("--out", Arg.String (fun d -> out := Some d), "DIR  write result rows and traces here") ]
  in
  let specs = function
    | "measure" ->
      common
      @ [ ("--workload", Arg.Set_string workload, "NAME  workload to run");
          ("--trace", Arg.Set_int trace, "0|1  untraced (end-to-end) or traced (per-layer) pass") ]
    | "run" -> common
    | "compare" ->
      [ ("--spec", Arg.Set_string spec_path, "FILE  BENCHMARK.json with the bounds");
        ("--parent", Arg.String (fun f -> parent := f :: !parent), "FILE  a parent run's results");
        ("--change", Arg.String (fun f -> change := f :: !change), "FILE  a change run's results") ]
    | _ -> []
  in
  let usage = "usage: csod_bench (measure | run | compare) [options]" in
  if Array.length Sys.argv < 2 then die "%s" usage;
  let cmd = Sys.argv.(1) in
  (match
     Arg.parse_argv ~current:(ref 1) Sys.argv (Arg.align (specs cmd))
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with
  | () -> ()
  | exception Arg.Bad m -> die "%s" m
  | exception Arg.Help m -> print_string m; exit 0);
  match cmd with
  | "measure" ->
    if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
    measure ~spec_path:!spec_path ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~traced:(!trace = 1) ~quick:!quick ~out:!out
  | "run" ->
    (match !out with
    | Some out -> run ~spec_path:!spec_path ~seed:!seed ~seconds:!seconds ~quick:!quick ~out
    | None -> die "run needs --out DIR")
  | "compare" ->
    if !parent = [] || !change = [] then die "compare needs --parent and --change files";
    exit
      (Compare.run ~spec:(load_spec !spec_path) ~parent:(List.rev !parent)
         ~change:(List.rev !change))
  | c -> die "unknown command %S; %s" c usage
