(* Counted descents run as one frame in the VM (a run frame standing for
   every level), and the interpreter's frames are the reference: the
   chains the run frame expands to must be the interpreter's wherever a
   chain is read.  A chain is read at an allocation's first sight, at a
   watchpoint trap (the access chain of a report) and through the
   machine's backtrace provider after an error. *)

type obs = {
  crashed : string option;
  rv : int;
  steps : int;
  cycles : int;
  chains : (int * int * int list) list;
      (* callsite, stack offset and the chain written, at every first sight *)
  reports : Report.t list;
  backtrace : int list; (* the machine's provider, asked after the run *)
}

(* One run under CSOD on a fresh machine, with snapshots every
   [snapshot_cycles] when it is positive. *)
let observe ?(step_limit = 1_000_000) ?(snapshot_cycles = 0) engine program =
  let machine = Machine.create ~seed:1 () in
  if snapshot_cycles > 0 then
    Telemetry.set_snapshot_interval (Machine.telemetry machine) ~cycles:snapshot_cycles;
  let heap = Heap.create machine in
  let inst = Config.instantiate Config.csod_default ~machine ~heap ~seed:1 () in
  let tool = inst.Config.tool and chains = ref [] in
  let malloc ~size ~ctx =
    let site = ctx.Alloc_ctx.callsite and off = ctx.Alloc_ctx.stack_offset in
    let write c =
      let from = c.Alloc_ctx.len in
      ctx.Alloc_ctx.write c;
      chains := (site, off, Alloc_ctx.to_list c ~off:from ~len:(c.Alloc_ctx.len - from)) :: !chains
    in
    tool.Tool.malloc ~size ~ctx:{ ctx with Alloc_ctx.write }
  in
  let crashed, rv, steps =
    match Engine.run ~engine ~machine ~tool:{ tool with Tool.malloc } ~program ~step_limit () with
    | r -> (None, r.Interp.return_value, r.Interp.steps)
    | exception Interp.Runtime_error (msg, loc) ->
      (Some (Srcloc.to_string loc ^ ": " ^ msg), 0, 0)
  in
  inst.Config.finish ();
  let reports =
    match inst.Config.csod with Some rt -> Runtime.detections rt | None -> []
  in
  let o =
    { crashed; rv; steps; cycles = Clock.cycles (Machine.clock machine);
      chains = List.rev !chains; reports; backtrace = Machine.backtrace machine }
  in
  Sparse_mem.release (Machine.mem machine);
  o

let load source =
  Program.load_exn [ { Program.file = "d.mc"; module_name = "d"; source } ]

let descents program =
  Array.fold_left
    (fun n i -> match i with Compile.Descent _ -> n + 1 | _ -> n)
    0 (Compile.get program).Compile.instrs

let agree what a b =
  let check name x y = if x <> y then Alcotest.failf "%s: %s differ" what name in
  check "crashes" a.crashed b.crashed;
  check "return values" a.rv b.rv;
  check "steps" a.steps b.steps;
  check "cycles" a.cycles b.cycles;
  check "first-sight chains" a.chains b.chains;
  check "reports" a.reports b.reports;
  check "backtraces" a.backtrace b.backtrace

let both ?step_limit ?snapshot_cycles what program =
  let a = observe ?step_limit ?snapshot_cycles Engine.Interp program in
  let b = observe ?step_limit ?snapshot_cycles Engine.Vm program in
  agree what a b;
  b

(* The longest run of one address in a chain. *)
let longest_run chain =
  let rec go best cur prev = function
    | [] -> max best cur
    | x :: xs -> if Some x = prev then go best (cur + 1) prev xs else go (max best cur) 1 (Some x) xs
  in
  go 0 0 None chain

(* Objects allocated at the bottom of one descent are overflowed at the
   bottom of another, by a read past the end (a watchpoint trap, whose
   report carries the access chain) and a write past the end (the canary,
   checked at free).  Both reports, and every allocation chain, are the
   interpreter's. *)
let trap_and_canary_at_the_bottom () =
  let program =
    load
      "fn get(d, size) {\n\
      \  if (d > 0) { return get(d - 1, size); }\n\
      \  return malloc(size);\n\
       }\n\
       fn peek(d, p, n) {\n\
      \  if (d > 0) { return peek(d - 1, p, n); }\n\
      \  return p[n];\n\
       }\n\
       fn poke(d, p, n) {\n\
      \  if (d > 0) { return poke(d - 1, p, n); }\n\
      \  p[n] = 7;\n\
      \  return 0;\n\
       }\n\
       fn main() {\n\
      \  for (var i = 0; i < 6; i = i + 1) {\n\
      \    var p = get(i + 3, 64);\n\
      \    var q = get(i + 9, 64);\n\
      \    var v = peek(i + 11, p, 8);\n\
      \    poke(i + 5, q, 8);\n\
      \    free(p);\n\
      \    free(q);\n\
      \  }\n\
      \  return 0;\n\
       }\n"
  in
  Alcotest.(check int) "three descents" 3 (descents program);
  let o = both "trap and canary" program in
  let from source =
    List.filter (fun (r : Report.t) -> r.Report.source = source) o.reports
  in
  (match from Report.Watchpoint with
   | [] -> Alcotest.fail "no watchpoint report"
   | r :: _ ->
     Alcotest.(check bool) "the access chain expands peek's descent" true
       (longest_run r.Report.access_backtrace >= 11));
  (match from Report.Canary_free with
   | [] -> Alcotest.fail "no canary report"
   | r :: _ ->
     Alcotest.(check bool) "the allocation chain expands get's descent" true
       (longest_run r.Report.alloc_backtrace >= 9));
  Alcotest.(check bool) "chains written at first sight" true (o.chains <> [])

(* A step limit in the bottom level's own loop, after a counted descent:
   the error, and the chain the backtrace provider gives after it (the pc,
   21 levels of [spin], main), are the interpreter's.  Steps 1-41 are main
   and the descent, 42 the bottom guard. *)
let step_limit_at_the_bottom () =
  let program =
    load
      "fn spin(d, n) {\n\
      \  if (d > 0) { return spin(d - 1, n); }\n\
      \  var s = 0;\n\
      \  for (var i = 0; i < n; i = i + 1) { s = s + i; }\n\
      \  return s;\n\
       }\n\
       fn main() { return spin(20, 30); }\n"
  in
  for step_limit = 42 to 80 do
    let o = both (Printf.sprintf "limit %d" step_limit) ~step_limit program in
    if o.crashed = None then Alcotest.failf "limit %d: no step-limit error" step_limit;
    Alcotest.(check int)
      (Printf.sprintf "limit %d: pc, 21 frames of spin, main" step_limit)
      23 (List.length o.backtrace)
  done

(* A descent whose bottom level descends again, through another wrapper
   and through itself, and spawns a thread that descends in turn: every
   chain is read with run frames stacked on run frames and across the
   thread's host boundary. *)
let nested_and_spawned () =
  let program =
    load
      "fn leaf(d, size) {\n\
      \  if (d > 0) { return leaf(d - 1, size); }\n\
      \  return malloc(size);\n\
       }\n\
       fn worker(depth) { return mid(depth + 2, 24, depth - 1); }\n\
       fn mid(d, size, depth) {\n\
      \  if (d > 0) { return mid(d - 1, size, depth); }\n\
      \  var p = leaf(depth + 2, size);\n\
      \  if (depth > 0) {\n\
      \    free(p);\n\
      \    var t = spawn(\"worker\", depth);\n\
      \    free(t);\n\
      \    p = mid(depth + 1, size + 8, depth - 1);\n\
      \  }\n\
      \  return p;\n\
       }\n\
       fn main() {\n\
      \  for (var i = 0; i < 5; i = i + 1) {\n\
      \    var p = mid(i + 1, 16 + i, 3);\n\
      \    p[0] = i;\n\
      \    free(p);\n\
      \  }\n\
      \  return 0;\n\
       }\n"
  in
  Alcotest.(check int) "two descents" 2 (descents program);
  let o = both "nested and spawned" program in
  Alcotest.(check bool) "a first-sight chain holds two runs" true
    (List.exists
       (fun (_, _, chain) -> longest_run chain >= 3 && List.length chain > 12)
       o.chains)

(* Descents that cross snapshot boundaries decline and run a level at a
   time until the boundary is behind them; the levels below may then run
   as one run frame under the plain frames above it.  Allocation chains,
   reports and cycles are the interpreter's at every interval. *)
let declined_then_counted () =
  let program =
    load
      "fn get(d, size) {\n\
      \  if (d > 0) { return get(d - 1, size); }\n\
      \  return malloc(size);\n\
       }\n\
       fn main() {\n\
      \  for (var i = 0; i < 12; i = i + 1) {\n\
      \    var p = get(5 * i + 1, 16 + i);\n\
      \    p[0] = i;\n\
      \    free(p);\n\
      \  }\n\
      \  return 0;\n\
       }\n"
  in
  List.iter
    (fun snapshot_cycles ->
      ignore (both (Printf.sprintf "interval %d" snapshot_cycles) ~snapshot_cycles program))
    [ 7; 31; 97; 1_000 ]

let suite =
  [ Alcotest.test_case "trap and canary at a descent's bottom match interp" `Quick
      trap_and_canary_at_the_bottom;
    Alcotest.test_case "step limit at a descent's bottom: interp's backtrace" `Quick
      step_limit_at_the_bottom;
    Alcotest.test_case "nested descents and a spawn at the bottom match interp" `Quick
      nested_and_spawned;
    Alcotest.test_case "a declined descent matches interp" `Quick declined_then_counted ]
