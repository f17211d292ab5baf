(* One workload, one pass: the untraced pass measures the end-to-end
   metrics, the traced pass the per-layer ones.  Both check every trial's
   digests against a reference trial taken by another path. *)

open Workloads

type settings = {
  workload : Workloads.t;
  seed : int;
  seconds : float;
  quick : bool;
  keep_spans : int;  (** individual spans kept for the trace file *)
  work : string;     (** scratch directory for serve files and stores *)
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  problems : string list;
  metrics : (string * float * string) list;  (** name, value, unit *)
  digest : int;
  trials : (string * float list) list;  (** per-trial values *)
  diagnostics : (string * float) list;
  trace : string option;  (** Perfetto JSON of the first traced trial *)
}

(* ---- statistics ---- *)

let sorted a =
  let s = Array.copy a in
  Array.sort compare s;
  s

let median a =
  let s = sorted a and n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Python's [statistics.quantiles(a, n=4)] (the "exclusive" method):
   first and third quartile. *)
let quartiles a =
  let s = sorted a and n = Array.length a in
  if n < 2 then (median a, median a)
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let percentile p a = Stats.percentile p (Array.to_list a)
let secs ns = float_of_int ns /. 1e9
let sum a = Array.fold_left ( + ) 0 a
let fsum f n = let s = ref 0. in for i = 0 to n - 1 do s := !s +. f i done; !s

let ms_of_ns a = Array.map (fun ns -> float_of_int ns /. 1e6) a

(* Calibrated host time (see calib.ml) of each step and execution. *)
let calibrated ns kernel = Array.map2 (fun ns kernel -> Calib.scale ~kernel ns) ns kernel

let peak_rss_mb () =
  match
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
          | Some _ -> find ()
        in
        find ())
  with
  | Some mb -> mb
  | None | (exception Sys_error _) -> nan

(* ---- failure accounting ---- *)

type account = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let note acc fmt = Printf.ksprintf (fun s -> acc.problems <- s :: acc.problems) fmt

(* An execution fails when its digest differs from the reference's or a
   semantic check rejects it.  A trial may run a prefix of the reference's
   executions (same seeds, same digests); a full-length trial whose
   aggregates alone differ counts one failure. *)
let check acc ~label ?reference (t : trial) =
  let n = Array.length t.op_ns in
  acc.attempted <- acc.attempted + n;
  let differs i =
    match reference with Some r -> r.op_digest.(i) <> t.op_digest.(i) | None -> false
  in
  let bad = ref 0 in
  for i = 0 to n - 1 do
    if differs i || t.op_bad.(i) then incr bad
  done;
  let bad =
    match reference with
    | Some r when !bad = 0 && Array.length r.op_digest = n && r.digest <> t.digest -> 1
    | _ -> !bad
  in
  if bad > 0 then begin
    acc.failed <- acc.failed + bad;
    note acc "%s: %d of %d executions failed their checks" label bad n
  end

let attempt acc ~label ~ops f =
  match f () with
  | t -> Some t
  | exception e ->
    acc.attempted <- acc.attempted + ops;
    acc.failed <- acc.failed + ops;
    note acc "%s raised %s" label (Printexc.to_string e);
    None

(* Run [f] until [seconds] have passed, at least [min] and at most [max]
   times; stops early when [f] fails. *)
let repeat ~seconds ~min ~max f =
  let t0 = Span.now_ns () in
  let rec go i acc =
    if i >= max || (i >= min && secs (Span.now_ns () - t0) >= seconds) then
      List.rev acc
    else match f i with Some x -> go (i + 1) (x :: acc) | None -> List.rev acc
  in
  go 0 []

let csod_mode w =
  { config = Config.csod_default; path = Library; domains = 1;
    recorder = w.Workloads.recorder; calibrate = false }

let ops_of s = if s.quick then s.workload.quick_ops else s.workload.ops

let run_trial s mode ~ops =
  s.workload.run mode ~seed:s.seed ~ops ~quick:s.quick ~dir:s.work

let failure acc =
  { correct = false; attempted = acc.attempted; failed = acc.failed;
    problems = List.rev acc.problems; metrics = []; digest = 0; trials = [];
    diagnostics = []; trace = None }

let finish acc ~digest ~metrics ~trials ~diagnostics ~trace =
  { correct = acc.failed = 0 && acc.problems = [];
    attempted = acc.attempted; failed = acc.failed;
    problems = List.rev acc.problems; metrics; digest; trials; diagnostics;
    trace }

(* ---- untraced pass: end-to-end metrics ---- *)

(* Many short repetitions, so a few milliseconds of host noise early in
   the process cannot carry the median.  Each ends with a minor collection
   inside its timing, so each pays for the garbage it made rather than
   every third one paying for three; untimed repetitions warm the caches
   first.  Each is calibrated by a kernel sample of its own.  They take a
   tenth of the measuring time, 51 to 2001 of them. *)
let setup_s s =
  let once _ =
    let kernel = Calib.kernel_ns () in
    let t0 = Span.now_ns () in
    let cleanup = s.workload.setup ~dir:s.work () in
    Gc.minor ();
    let t = Span.now_ns () - t0 in
    cleanup ();
    Some (Calib.scale ~kernel t /. 1e9)
  in
  for i = 1 to 20 do ignore (once i) done;
  median (Array.of_list (repeat ~seconds:(s.seconds /. 10.) ~min:51 ~max:2001 once))

(* What the end-to-end metrics need from one trial.  Keeping whole
   trials would pile their per-execution arrays up in the heap that
   [peak_rss_mb] measures, growing it with the number of trials. *)
type kept = {
  steps : float array;  (** calibrated ns of each step *)
  raw_steps : float array;  (** host ns of each step *)
  exec_ms_p50 : float;  (** calibrated *)
  raw_exec_ms_p50 : float;
  kernel_ns_p50 : float;
  tail_ms : float array;  (** calibrated execution times, first three trials only *)
}

(* Time of a trial with each step at its median over the trials: a burst
   of host noise in one trial is voted out step by step. *)
let median_sum trials =
  let steps = Array.of_list trials in
  fsum (fun j -> median (Array.map (fun s -> s.(j)) steps)) (Array.length steps.(0))

let end_to_end s =
  let acc = { attempted = 0; failed = 0; problems = [] } in
  let w = s.workload in
  let setup = setup_s s in
  w.prepare ();
  let ops = ops_of s and mode = { (csod_mode w) with calibrate = true } in
  (* The warm-up goes through the rebuilt call sequence with spans off: it
     warms the caches and is the reference every timed trial must match. *)
  match
    attempt acc ~label:"warm-up" ~ops (fun () ->
        run_trial s { mode with path = Rebuilt (Span.off ()) } ~ops)
  with
  | None -> failure acc
  | Some reference ->
    check acc ~label:"warm-up" reference;
    let kept =
      repeat ~seconds:s.seconds ~min:3 ~max:50 (fun i ->
          let label = Printf.sprintf "trial %d" (i + 1) in
          Option.map
            (fun t ->
              check acc ~label ~reference t;
              let exec_ms = Array.map (fun ns -> ns /. 1e6) (calibrated t.op_ns t.op_kernel) in
              { steps = calibrated t.steps_ns t.steps_kernel;
                raw_steps = Array.map float_of_int t.steps_ns;
                exec_ms_p50 = median exec_ms;
                raw_exec_ms_p50 = median (ms_of_ns t.op_ns);
                kernel_ns_p50 = median (Array.map float_of_int t.steps_kernel);
                tail_ms = (if i < 3 then exec_ms else [||]) })
            (attempt acc ~label ~ops (fun () -> run_trial s mode ~ops)))
    in
    let peak_rss = peak_rss_mb () in
    if kept = [] then failure acc
    else begin
      let per f = List.map f kept in
      let per_s ns = float_of_int ops /. (ns /. 1e9) in
      let allocs = float_of_int (sum reference.op_allocs) /. float_of_int ops in
      let execs_per_s = per_s (median_sum (per (fun k -> k.steps))) in
      let tail_ms = Array.concat (per (fun k -> k.tail_ms)) in
      let step_ms = Array.map (fun ns -> ns /. 1e6) (Array.concat (per (fun k -> k.steps))) in
      let diagnostics =
        [ ("trials", float_of_int (List.length kept));
          ("ops_per_trial", float_of_int ops);
          ("exec_samples", float_of_int (Array.length tail_ms));
          ("exec_ms_p99", percentile 99. tail_ms);
          ("step_samples", float_of_int (Array.length step_ms));
          ("step_ms_p50", median step_ms);
          ("step_ms_p99", percentile 99. step_ms);
          ("kernel_us_p50", median (Array.of_list (per (fun k -> k.kernel_ns_p50))) /. 1e3);
          ("host_execs_per_s", per_s (median_sum (per (fun k -> k.raw_steps))));
          ("host_exec_ms_p50", median (Array.of_list (per (fun k -> k.raw_exec_ms_p50)))) ]
      in
      finish acc ~digest:reference.digest ~trace:None ~diagnostics
        ~trials:
          [ ("execs_per_s", per (fun k -> per_s (fsum (Array.get k.steps) (Array.length k.steps))));
            ("exec_ms_p50", per (fun k -> k.exec_ms_p50));
            ("kernel_us_p50", per (fun k -> k.kernel_ns_p50 /. 1e3)) ]
        ~metrics:
          [ ("execs_per_s", execs_per_s, "1/s");
            ("exec_ms_p50", median (Array.of_list (per (fun k -> k.exec_ms_p50))), "ms");
            ("sim_allocs_per_s", execs_per_s *. allocs, "1/s");
            ("setup_s", setup, "s");
            ("peak_rss_mb", peak_rss, "MB") ]
    end

(* ---- traced pass: per-layer metrics ---- *)

type pair = {
  untraced : trial;
  minor_words : float;
  major : int;
  traced : trial;
  span : Span.t;
}

let persist_ms store ~dir =
  let path = Filename.concat dir "store" in
  let time f =
    median
      (Array.init 5 (fun _ ->
           let t0 = Span.now_ns () in
           f ();
           float_of_int (Span.now_ns () - t0) /. 1e6))
  in
  let save = time (fun () -> Persist.save store path) in
  let load = time (fun () -> ignore (Persist.load path)) in
  Sys.remove path;
  (save, load)

let layer_metrics s =
  let acc = { attempted = 0; failed = 0; problems = [] } in
  let w = s.workload in
  w.prepare ();
  let ops = ops_of s and mode = csod_mode w in
  match attempt acc ~label:"warm-up" ~ops (fun () -> run_trial s mode ~ops) with
  | None -> failure acc
  | Some reference ->
    check acc ~label:"warm-up" reference;
    (* Untraced and traced trials alternate, so drift hits both alike.
       They get half the time; the ladder and the other extras below take
       about as long again. *)
    let pairs =
      repeat ~seconds:(s.seconds /. 2.) ~min:2 ~max:20 (fun i ->
          let label = Printf.sprintf "pair %d" (i + 1) in
          let g0 = Gc.quick_stat () in
          match attempt acc ~label ~ops (fun () -> run_trial s mode ~ops) with
          | None -> None
          | Some untraced ->
            let g1 = Gc.quick_stat () in
            check acc ~label:(label ^ " untraced") ~reference untraced;
            let span = Span.create ~keep:(if i = 0 then s.keep_spans else 0) () in
            Option.map
              (fun traced ->
                check acc ~label:(label ^ " traced") ~reference traced;
                { untraced; traced; span;
                  minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
                  major = g1.Gc.major_collections - g0.Gc.major_collections })
              (attempt acc ~label ~ops (fun () ->
                   run_trial s { mode with path = Rebuilt span } ~ops)))
    in
    if pairs = [] then failure acc
    else begin
      let k = min ops w.ladder_ops in
      let ka = min k w.asan_ops in
      let extra ?reference label mode ~ops =
        Option.map
          (fun t -> check acc ~label ?reference t; t)
          (attempt acc ~label ~ops (fun () -> run_trial s mode ~ops))
      in
      (* The ladder: the same first [k] executions under each tool. *)
      let rung label config = extra label { mode with config } ~ops:k in
      let base = rung "baseline" Config.Baseline in
      let noev = rung "no-evidence" Config.csod_no_evidence in
      let csod = extra ~reference "csod" mode ~ops:k in
      let asan = extra "asan" { mode with config = Config.asan_min_redzone } ~ops:ka in
      let recd = extra ~reference "recorder" { mode with recorder = not w.recorder } ~ops:k in
      (* The flight recorder is process-global: no recorder across domains. *)
      let d2 = extra ~reference "2 domains" { mode with domains = 2; recorder = false } ~ops in
      let untraced = Array.of_list (List.map (fun p -> p.untraced) pairs) in
      (* The 1-domain wall time to set against [d2]'s, also recorder off. *)
      let d1 =
        if w.recorder then
          Option.map
            (fun t -> float_of_int t.wall_ns)
            (extra ~reference "1 domain" { mode with recorder = false } ~ops)
        else Some (median (Array.map (fun u -> float_of_int u.wall_ns) untraced))
      in
      let allocs n = float_of_int (sum (Array.sub reference.op_allocs 0 n)) in
      let ns_of o i = match o with Some t -> float_of_int t.op_ns.(i) | None -> nan in
      let per_alloc n f = fsum f n /. allocs n in
      let med_pairs f = median (Array.of_list (List.map f pairs)) in
      let traced name f =
        med_pairs (fun p ->
            match Span.find p.span name with
            | Some l when l.Span.calls > 0 -> f l
            | _ -> nan)
      in
      let mean_ns l = float_of_int l.Span.total_ns /. float_of_int l.Span.calls in
      let self_ns l = float_of_int l.Span.self_ns /. float_of_int l.Span.calls in
      let total_ops = float_of_int (ops * List.length pairs) in
      let count name =
        float_of_int (Option.value ~default:0 (List.assoc_opt name reference.counters))
      in
      let events =
        count "machine.accesses" +. count "heap.mallocs" +. count "heap.frees"
        +. count "trap.count"
      in
      let recorder_frac =
        let on, off = if w.recorder then (csod, recd) else (recd, csod) in
        (fsum (ns_of on) k /. fsum (ns_of off) k) -. 1.
      in
      let save_ms, load_ms = persist_ms reference.store ~dir:s.work in
      let pooled = Array.concat (List.map (fun t -> t.op_ns) (Array.to_list untraced)) in
      let overheads =
        List.map
          (fun p -> (float_of_int p.traced.wall_ns /. float_of_int p.untraced.wall_ns) -. 1.)
          pairs
      in
      let metrics =
        [ ("machine.create_us", traced "machine.create" mean_ns /. 1e3, "us");
          ("heap.create_us", traced "heap.create" mean_ns /. 1e3, "us");
          ("runtime.create_us", traced "runtime.create" mean_ns /. 1e3, "us");
          ("program.self_ms", traced "program.run" self_ns /. 1e6, "ms");
          ("runtime.malloc_ns", traced "runtime.malloc" mean_ns, "ns");
          ("runtime.free_ns", traced "runtime.free" mean_ns, "ns");
          ("runtime.finish_us", traced "runtime.finish" mean_ns /. 1e3, "us");
          ("exec.other_us", traced "exec" self_ns /. 1e3, "us");
          ("fleet.barrier_frac",
           median
             (Array.map
                (fun t -> 1. -. (float_of_int (sum t.op_ns) /. float_of_int t.wall_ns))
                untraced),
           "frac");
          ("persist.save_ms", save_ms, "ms");
          ("persist.load_ms", load_ms, "ms");
          ("obs.recorder_frac", recorder_frac, "frac");
          ("trace.overhead_frac", median (Array.of_list overheads), "frac");
          ("ladder.baseline_exec_ms",
           Option.fold ~none:nan ~some:(fun t -> median (ms_of_ns t.op_ns)) base,
           "ms");
          ("ladder.smu_wmu_ns", per_alloc k (fun i -> ns_of noev i -. ns_of base i), "ns");
          ("ladder.canary_ns", per_alloc k (fun i -> ns_of csod i -. ns_of noev i), "ns");
          ("ladder.asan_ns", per_alloc ka (fun i -> ns_of asan i -. ns_of base i), "ns");
          ("gc.minor_mb_per_exec",
           List.fold_left (fun a p -> a +. p.minor_words) 0. pairs
           *. float_of_int (Sys.word_size / 8) /. 1e6 /. total_ops,
           "MB");
          ("gc.major_per_1k_exec",
           float_of_int (List.fold_left (fun a p -> a + p.major) 0 pairs)
           *. 1000. /. total_ops,
           "1/1k_exec");
          ("sim.host_ns_per_event",
           median (Array.map (fun t -> float_of_int t.wall_ns /. events) untraced),
           "ns");
          ("lat.exec_ms_p99", percentile 99. (ms_of_ns pooled), "ms");
          ("pool.speedup_2d",
           (match (d1, d2) with
           | Some d1, Some d2 -> d1 /. float_of_int d2.wall_ns
           | _ -> nan),
           "x") ]
        @ List.map
            (fun name -> (name, count name, "count"))
            [ "heap.mallocs"; "heap.frees"; "machine.accesses"; "machine.syscalls";
              "trap.count"; "smu.decisions"; "smu.watched"; "wmu.installs";
              "wmu.replacements"; "canary.checks"; "report.count" ]
        @ [ ("vcycles.per_exec", float_of_int (reference.vcycles / ops), "count");
            ("vcycles.tool_per_exec", float_of_int (reference.tool_vcycles / ops), "count");
            ("persist.store_contexts", float_of_int (Persist.count reference.store), "count");
            ("serve.history_bytes", float_of_int reference.history_bytes, "count") ]
      in
      finish acc ~digest:reference.digest ~metrics
        ~trials:[ ("trace.overhead_frac", overheads) ]
        ~diagnostics:
          [ ("pairs", float_of_int (List.length pairs));
            ("ops_per_trial", float_of_int ops);
            ("ladder_ops", float_of_int k);
            ("asan_ops", float_of_int ka);
            ("exec_samples", float_of_int (Array.length pooled)) ]
        ~trace:(Some (Span.to_trace (List.hd pairs).span))
    end
