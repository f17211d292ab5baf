(* Property-based tests, driven by the csod_sim simulation harness.

   Each former hand-rolled generator loop is now an alphabet sweep: the
   operations, their weights and their model live in lib/sim (Sim_heap,
   Sim_runtime, Sim_fleet, Sim_store), the engine draws the sequences from
   a dedicated PRNG stream, checks the model invariant after every step,
   and a failing sweep prints the automatically shrunk minimal repro as a
   runnable csod.sim.repro/1 line — paste it into a file and re-execute it
   with `csod_run sim --replay FILE`.

   The invariants covered are the same ones the old loops guarded: the
   heap honours a free exactly once and rejects double frees, sparse
   memory round-trips reads through writes across chunk boundaries (and
   the page pool hands back zeroed pages — the heap alphabet's recycle
   op), the watch table never holds more armed watchpoints than
   the four debug registers, the persistent store's save/load/merge behave
   as a set, and the fleet's barriers/checkpoint/crash-resume agree with
   an exact model. *)

let sweep pack ~seed ~runs ~ops =
  match Sim.run_packed pack ~seed ~runs ~ops with
  | [] -> ()
  | f :: _ -> Alcotest.failf "%s" (Sim.summary f)

let prop_heap () = sweep (Sim_heap.alphabet ()) ~seed:1000 ~runs:40 ~ops:150
let prop_runtime () = sweep (Sim_runtime.alphabet ()) ~seed:3000 ~runs:25 ~ops:120
let prop_fleet () = sweep (Sim_fleet.alphabet ()) ~seed:5000 ~runs:15 ~ops:60
let prop_store () = sweep (Sim_store.alphabet ()) ~seed:4000 ~runs:25 ~ops:100

(* ------------------------------------------------------------------ *)
(* Legacy regression pin: one hand-rolled seed-printing loop survives, so
   the pre-sim test style (derive everything from one integer, print the
   failing seed) keeps a guard — and so does the exact op mix it used. *)

let legacy_heap_no_double_free () =
  for case = 0 to 9 do
    let seed = 1000 + case in
    let g = Prng.create ~seed in
    let machine = Machine.create ~seed () in
    let heap = Heap.create machine in
    let live = Hashtbl.create 16 in
    let freed = ref [] in
    for step = 1 to 200 do
      let r = Prng.int g 100 in
      if r < 50 || Hashtbl.length live = 0 then begin
        let size = 1 + Prng.int g 512 in
        let p = Heap.malloc heap size in
        if Hashtbl.mem live p then
          Alcotest.failf "step %d: malloc returned live pointer %#x (repro seed=%d)"
            step p seed;
        Hashtbl.replace live p size
      end
      else if r < 85 then begin
        let ptrs = List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) live []) in
        let p = List.nth ptrs (Prng.int g (List.length ptrs)) in
        Heap.free heap p;
        Hashtbl.remove live p;
        freed := p :: !freed
      end
      else begin
        match !freed with
        | [] -> ()
        | p :: _ when Heap.is_live heap p -> () (* block recycled since *)
        | p :: _ -> (
          match Heap.free heap p with
          | () ->
            Alcotest.failf "step %d: double free of %#x accepted (repro seed=%d)"
              step p seed
          | exception Heap.Error _ -> ())
      end
    done;
    if Heap.live_objects heap <> Hashtbl.length live then
      Alcotest.failf "live count %d, model %d (repro seed=%d)"
        (Heap.live_objects heap) (Hashtbl.length live) seed
  done

(* ------------------------------------------------------------------ *)
(* Differential-testing net: random well-typed MiniC programs executed
   under both engines (AST interpreter vs bytecode VM), asserting every
   observable is bit-identical — stdout, cycle total, allocation/free
   stream (sizes, callsites, stack offsets, returned pointers), detection
   reports, machine-PRNG position, access/trap counts, step count, return
   value, and any crash message.  A failure prints the repro seed and the
   full generated program. *)

(* Seeded generator.  Programs are built scope-correctly (declarations
   tracked per block, calls only to earlier-defined functions, loops
   bounded by a fresh counter), then Sema filters the rest: a generated
   program that fails to load is skipped, and the sweep asserts the yield
   stays high enough to mean something. *)
let gen_program ~seed =
  let g = Prng.create ~seed in
  let buf = Buffer.create 1024 in
  let fresh = ref 0 in
  let name p =
    incr fresh;
    Printf.sprintf "%s%d" p !fresh
  in
  let pick xs = List.nth xs (Prng.int g (List.length xs)) in
  let binops =
    [| "+"; "-"; "*"; "<"; "<="; ">"; ">="; "=="; "!="; "&"; "|"; "^";
       "<<"; ">>"; "&&"; "||" |]
  in
  (* A call's arguments.  A descent function's depth comes from an input
     (up to 255) or a draw as often as not, so some chains are long. *)
  let descents = ref [] in
  let call_args f arity arg =
    String.concat ", "
      (List.init arity (fun j ->
           match Prng.int g 4 with
           | 0 when j = 0 && List.mem f !descents ->
             Printf.sprintf "input(%d)" (Prng.int g 4)
           | 1 when j = 0 && List.mem f !descents ->
             Printf.sprintf "rand(%d)" (1 + Prng.int g 64)
           | _ -> arg ()))
  in
  let rec expr vars ptrs funcs depth =
    let leaf () =
      match Prng.int g 10 with
      | 0 | 1 | 2 | 3 -> string_of_int (Prng.int g 64)
      | 4 | 5 | 6 -> (match vars with [] -> string_of_int (Prng.int g 8) | _ -> pick vars)
      | 7 -> Printf.sprintf "input(%d)" (Prng.int g 4)
      | 8 -> "input_len()"
      | _ -> Printf.sprintf "rand(%d)" (1 + Prng.int g 9)
    in
    if depth = 0 then leaf ()
    else
      match Prng.int g 16 with
      | 0 | 1 | 2 | 3 | 4 | 5 ->
        Printf.sprintf "(%s %s %s)"
          (expr vars ptrs funcs (depth - 1))
          binops.(Prng.int g (Array.length binops))
          (expr vars ptrs funcs (depth - 1))
      | 6 ->
        (* division / modulo: mostly-safe denominators, occasionally an
           arbitrary expression — a zero crashes both engines at the same
           location with the same message, which the sweep checks too *)
        let den =
          if Prng.int g 5 = 0 then expr vars ptrs funcs (depth - 1)
          else string_of_int (1 + Prng.int g 9)
        in
        Printf.sprintf "(%s %s %s)"
          (expr vars ptrs funcs (depth - 1))
          (if Prng.int g 2 = 0 then "/" else "%")
          den
      | 7 -> Printf.sprintf "(-%s)" (expr vars ptrs funcs (depth - 1))
      | 8 -> Printf.sprintf "(!%s)" (expr vars ptrs funcs (depth - 1))
      | 9 when ptrs <> [] -> Printf.sprintf "%s[%d]" (pick ptrs) (Prng.int g 5)
      | 10 when ptrs <> [] ->
        Printf.sprintf "load8(%s, %d)" (pick ptrs) (Prng.int g 16)
      | 11 when funcs <> [] ->
        let f, arity = pick funcs in
        Printf.sprintf "%s(%s)" f
          (call_args f arity (fun () -> expr vars ptrs funcs (depth - 1)))
      | _ -> leaf ()
  in
  (* One block: vars/ptrs snapshots from the enclosing scope, own
     declarations kept local so nothing leaks into a sibling block. *)
  let rec gen_block vars0 ptrs0 funcs ~in_loop ~depth =
    let vars = ref vars0 and ptrs = ref ptrs0 in
    let e d = expr !vars !ptrs funcs d in
    for _ = 1 to 1 + Prng.int g 4 do
      match Prng.int g 21 with
      | 0 | 1 | 2 ->
        let v = name "v" in
        Buffer.add_string buf (Printf.sprintf "var %s = %s;\n" v (e 2));
        vars := v :: !vars
      | 3 | 4 when !vars <> [] ->
        Buffer.add_string buf (Printf.sprintf "%s = %s;\n" (pick !vars) (e 2))
      | 5 ->
        let p = name "p" in
        Buffer.add_string buf
          (if Prng.int g 3 = 0 then
             Printf.sprintf "var %s = calloc(%d, 8);\n" p (4 + Prng.int g 5)
           else Printf.sprintf "var %s = malloc(%d);\n" p (32 + (8 * Prng.int g 8)));
        ptrs := p :: !ptrs;
        vars := p :: !vars
      | 6 when !ptrs <> [] ->
        (* index 0..5 on a >=32-byte object: mostly in bounds, sometimes
           past the end — the detection paths must agree too *)
        Buffer.add_string buf
          (Printf.sprintf "%s[%d] = %s;\n" (pick !ptrs) (Prng.int g 6) (e 2))
      | 7 when !ptrs <> [] ->
        Buffer.add_string buf
          (Printf.sprintf "store8(%s, %d, %s);\n" (pick !ptrs) (Prng.int g 16) (e 1))
      | 8 when !ptrs <> [] ->
        Buffer.add_string buf
          (Printf.sprintf "memset(%s, %s, %d);\n" (pick !ptrs) (e 1) (Prng.int g 16))
      | 9 when List.length !ptrs >= 2 ->
        Buffer.add_string buf
          (Printf.sprintf "memcpy(%s, %s, %d);\n" (pick !ptrs) (pick !ptrs)
             (Prng.int g 16))
      | 10 when !ptrs <> [] ->
        let p = pick !ptrs in
        Buffer.add_string buf (Printf.sprintf "free(%s);\n" p);
        ptrs := List.filter (( <> ) p) !ptrs
      | 11 ->
        Buffer.add_string buf
          (Printf.sprintf "print(\"t%d\", %s);\n" (Prng.int g 10) (e 1))
      | 12 ->
        Buffer.add_string buf (Printf.sprintf "sleep_ms(%d);\n" (Prng.int g 3))
      | 13 ->
        Buffer.add_string buf (Printf.sprintf "work(%d);\n" (Prng.int g 64))
      | 14 when depth > 0 ->
        let cond =
          match !vars with
          | _ :: _ when Prng.int g 3 = 0 ->
            (* [if (x op k)]: one compare-and-branch statement head *)
            Printf.sprintf "(%s %s %d)" (pick !vars)
              (pick [ "<"; "<="; ">"; ">="; "=="; "!=" ])
              (Prng.int g 8)
          | _ -> e 2
        in
        Buffer.add_string buf (Printf.sprintf "if (%s) {\n" cond);
        gen_block !vars !ptrs funcs ~in_loop ~depth:(depth - 1);
        if Prng.int g 2 = 0 then begin
          Buffer.add_string buf "} else {\n";
          gen_block !vars !ptrs funcs ~in_loop ~depth:(depth - 1)
        end;
        Buffer.add_string buf "}\n"
      | 15 when depth > 0 ->
        (* bounded while: the counter increments first thing, so a
           continue in the body cannot stall the loop *)
        let w = name "w" in
        Buffer.add_string buf
          (Printf.sprintf "var %s = 0;\nwhile (%s < %d) {\n%s = %s + 1;\n" w w
             (1 + Prng.int g 5) w w);
        gen_block (w :: !vars) !ptrs funcs ~in_loop:true ~depth:(depth - 1);
        Buffer.add_string buf "}\n"
      | 16 when depth > 0 ->
        let i = name "i" in
        Buffer.add_string buf
          (Printf.sprintf "for (var %s = 0; %s < %d; %s = %s + 1) {\n" i i
             (1 + Prng.int g 5) i i);
        gen_block (i :: !vars) !ptrs funcs ~in_loop:true ~depth:(depth - 1);
        Buffer.add_string buf "}\n"
      | 17 when in_loop ->
        Buffer.add_string buf
          (if Prng.int g 2 = 0 then "break;\n" else "continue;\n")
      | 18 when funcs <> [] ->
        let f, arity = pick funcs in
        let args = call_args f arity (fun () -> e 1) in
        Buffer.add_string buf
          (if Prng.int g 3 = 0 then
             Printf.sprintf "spawn(\"%s\"%s);\n" f
               (if arity = 0 then "" else ", " ^ args)
           else Printf.sprintf "%s(%s);\n" f args)
      | 19 when vars0 <> [] && Prng.int g 2 = 0 && depth > 0 ->
        (* shadow an enclosing-scope variable in a nested block: the VM's
           static slot resolution must agree with the interpreter's scope
           chain *)
        let v = pick vars0 in
        Buffer.add_string buf
          (Printf.sprintf "if (1) {\nvar %s = %s;\nprint(\"s\", %s);\n}\n" v
             (e 1) v)
      | _ -> Buffer.add_string buf (Printf.sprintf "%s;\n" (e 2))
    done
  in
  let funcs = ref [] in
  for i = 1 to Prng.int g 3 do
    let fname = Printf.sprintf "f%d" i in
    let descent = Prng.int g 3 = 0 in
    let arity = if descent then 1 + Prng.int g 3 else Prng.int g 3 in
    let params = List.init arity (fun j -> Printf.sprintf "a%d_%d" i j) in
    Buffer.add_string buf
      (Printf.sprintf "fn %s(%s) {\n" fname (String.concat ", " params));
    if descent then begin
      (* a self-recursive descent, [if (x > c) { return f(x - k, ...); }]:
         the VM runs the whole chain as one instruction *)
      let x = List.hd params in
      Buffer.add_string buf
        (Printf.sprintf "if (%s > %d) {\nreturn %s(%s - %d%s);\n}\n" x
           (Prng.int g 4) fname x (1 + Prng.int g 3)
           (String.concat "" (List.map (fun p -> ", " ^ p) (List.tl params))));
      descents := fname :: !descents
    end;
    gen_block params [] !funcs ~in_loop:false ~depth:1;
    let ret =
      match (List.filter (fun (_, a) -> a > 0) !funcs, params) with
      | (_ :: _ as callees), x :: _ when Prng.int g 2 = 0 ->
        (* [return f(x - k, y)]: the recursive wrappers' shape, whose
           frame the callee's [Ret] pops along with its own *)
        let f, arity = pick callees in
        Printf.sprintf "%s(%s - %d%s)" f x (1 + Prng.int g 3)
          (String.concat ""
             (List.init (arity - 1) (fun _ -> ", " ^ pick params)))
      | _ -> expr params [] !funcs 1
    in
    Buffer.add_string buf (Printf.sprintf "return %s;\n}\n" ret);
    funcs := (fname, arity) :: !funcs
  done;
  Buffer.add_string buf "fn main() {\n";
  gen_block [] [] !funcs ~in_loop:false ~depth:2;
  Buffer.add_string buf
    (Printf.sprintf "return %s;\n}\n" (expr [] [] !funcs 1));
  Buffer.contents buf

(* Everything both engines are contractually required to agree on. *)
type dobs = {
  d_cycles : int;
  d_output : string;
  d_crashed : string option;
  d_steps : int;
  d_rv : int;
  d_allocs : (int * int * int * int) list;
      (* size, callsite, stack offset, returned pointer *)
  d_chains : (int * int * int list) list;
      (* callsite, stack offset and the chain the engine wrote, at every
         first sight *)
  d_frees : int list;
  d_reports : string list;
  d_prng : int64; (* machine-PRNG position: same draws in the same order *)
  d_accesses : int;
  d_traps : int;
}

let d_observe engine program ~inputs ~seed ~step_limit =
  let machine = Machine.create ~seed () in
  let heap = Heap.create machine in
  let inst = Config.instantiate Config.csod_default ~machine ~heap ~seed () in
  let allocs = ref [] and frees = ref [] and chains = ref [] in
  let tool = inst.Config.tool in
  let rec_tool =
    { tool with
      Tool.malloc =
        (fun ~size ~ctx ->
          (* The engine re-points its one handle at every malloc: read
             the pair before the call, and log each chain as it is
             written. *)
          let site = ctx.Alloc_ctx.callsite and off = ctx.Alloc_ctx.stack_offset in
          let logged =
            { ctx with
              Alloc_ctx.write =
                (fun c ->
                  let from = c.Alloc_ctx.len in
                  ctx.Alloc_ctx.write c;
                  chains :=
                    (site, off, Alloc_ctx.to_list c ~off:from ~len:(c.Alloc_ctx.len - from))
                    :: !chains) }
          in
          let p = tool.Tool.malloc ~size ~ctx:logged in
          allocs := (size, site, off, p) :: !allocs;
          p);
      free =
        (fun ~ptr ->
          frees := ptr :: !frees;
          tool.Tool.free ~ptr) }
  in
  let buf = Buffer.create 64 in
  let rv = ref 0 and steps = ref 0 in
  let crashed =
    try
      let r =
        Engine.run ~engine ~machine ~tool:rec_tool ~program ~inputs
          ~app_seed:seed ~step_limit ()
      in
      Buffer.add_string buf r.Interp.output;
      rv := r.Interp.return_value;
      steps := r.Interp.steps;
      None
    with
    | Interp.Runtime_error (msg, loc) ->
      Some (Printf.sprintf "%s: %s" (Srcloc.to_string loc) msg)
    | Heap.Error msg -> Some msg
  in
  inst.Config.finish ();
  let reports =
    match inst.Config.csod with
    | Some rt ->
      List.map
        (fun r ->
          Format.asprintf "%a"
            (Report.pp ~symbolize:(Program.symbolize program))
            r)
        (Runtime.detections rt)
    | None -> []
  in
  let o =
    { d_cycles = Clock.cycles (Machine.clock machine);
      d_output = Buffer.contents buf;
      d_crashed = crashed;
      d_steps = !steps;
      d_rv = !rv;
      d_allocs = List.rev !allocs;
      d_chains = List.rev !chains;
      d_frees = List.rev !frees;
      d_reports = reports;
      d_prng = Prng.bits64 (Machine.rng machine);
      d_accesses = Machine.access_count machine;
      d_traps = Machine.trap_count machine }
  in
  Sparse_mem.release (Machine.mem machine);
  o

let describe_diff a b =
  let out = Buffer.create 128 in
  let p fmt = Printf.ksprintf (Buffer.add_string out) fmt in
  if a.d_cycles <> b.d_cycles then p "\n  cycles %d vs %d" a.d_cycles b.d_cycles;
  if a.d_output <> b.d_output then p "\n  output %S vs %S" a.d_output b.d_output;
  if a.d_crashed <> b.d_crashed then
    p "\n  crash %s vs %s"
      (Option.value ~default:"-" a.d_crashed)
      (Option.value ~default:"-" b.d_crashed);
  if a.d_steps <> b.d_steps then p "\n  steps %d vs %d" a.d_steps b.d_steps;
  if a.d_rv <> b.d_rv then p "\n  return %d vs %d" a.d_rv b.d_rv;
  if a.d_allocs <> b.d_allocs then
    p "\n  alloc streams differ (%d vs %d allocations)"
      (List.length a.d_allocs) (List.length b.d_allocs);
  if a.d_chains <> b.d_chains then
    p "\n  first-sight chains differ (%d vs %d contexts)"
      (List.length a.d_chains) (List.length b.d_chains);
  if a.d_frees <> b.d_frees then p "\n  free streams differ";
  if a.d_reports <> b.d_reports then
    p "\n  reports differ (%d vs %d)" (List.length a.d_reports)
      (List.length b.d_reports);
  if a.d_prng <> b.d_prng then
    p "\n  machine PRNG position %Ld vs %Ld" a.d_prng b.d_prng;
  if a.d_accesses <> b.d_accesses then
    p "\n  access counts %d vs %d" a.d_accesses b.d_accesses;
  if a.d_traps <> b.d_traps then p "\n  trap counts %d vs %d" a.d_traps b.d_traps;
  Buffer.contents out

let load_gen source =
  Program.load [ { Program.file = "gen.mc"; module_name = "gen"; source } ]

let gen_inputs ~seed =
  let gi = Prng.create ~seed:(seed lxor 0x5eed) in
  Array.init 4 (fun _ -> Prng.int gi 256)

let diff_sweep_engines () =
  let compared = ref 0 and rejected = ref 0 in
  for seed = 9000 to 9079 do
    let source = gen_program ~seed in
    match load_gen source with
    | Error _ -> incr rejected
    | Ok program ->
      incr compared;
      let inputs = gen_inputs ~seed in
      let a = d_observe Engine.Interp program ~inputs ~seed ~step_limit:50_000 in
      let b = d_observe Engine.Vm program ~inputs ~seed ~step_limit:50_000 in
      if a <> b then
        Alcotest.failf
          "engines diverge (repro seed=%d):%s\n--- program ---\n%s" seed
          (describe_diff a b) source
  done;
  (* The generator is scope-correct by construction; if Sema starts
     rejecting most of its output, the sweep is no longer testing much. *)
  if !compared < 60 then
    Alcotest.failf "generator yield too low: %d/80 programs passed Sema (%d rejected)"
      !compared !rejected

(* The same sweep must catch the planted vm-buggy-cycles bug (one extra
   cycle per taken backward jump): proof the net is tight enough to see a
   single-cycle divergence.  test_minic.ml pins the shrunk repro. *)
let diff_sweep_catches_planted_bug () =
  let caught = ref false in
  (try
     for seed = 9000 to 9029 do
       let source = gen_program ~seed in
       match load_gen source with
       | Error _ -> ()
       | Ok program ->
         let inputs = gen_inputs ~seed in
         let a =
           d_observe Engine.Interp program ~inputs ~seed ~step_limit:50_000
         in
         let b =
           d_observe Engine.Vm_buggy_cycles program ~inputs ~seed
             ~step_limit:50_000
         in
         if a <> b then begin
           caught := true;
           raise Exit
         end
     done
   with Exit -> ());
  if not !caught then
    Alcotest.fail
      "differential sweep failed to catch the planted vm-buggy-cycles bug"

(* The sweep only vouches for the superinstructions its corpus compiles
   to: every fused constructor and the counted descent must occur at
   least once, and so must a call whose resume point is a [Ret] (a
   [return f(...)], whose frames the VM pops in one step). *)
let superinstructions (code : Compile.code) =
  let instrs = code.Compile.instrs in
  List.sort_uniq compare
    (List.concat
       (List.mapi
          (fun i ins ->
            let resumes_at_ret () =
              i + 1 < Array.length instrs && instrs.(i + 1) = Compile.Ret
            in
            match ins with
            | Compile.Jz_si _ -> [ "Jz_si" ]
            | Compile.Stmt_load _ -> [ "Stmt_load" ]
            | Compile.Stmt_bin_si _ -> [ "Stmt_bin_si" ]
            | Compile.Stmt_jz_si _ -> [ "Stmt_jz_si" ]
            | Compile.Descent _ -> [ "Descent" ]
            | Compile.Call_l _ when resumes_at_ret () -> [ "Call_l"; "return chain" ]
            | Compile.Call_l _ -> [ "Call_l" ]
            | Compile.Call _ when resumes_at_ret () -> [ "return chain" ]
            | _ -> [])
          (Array.to_list instrs)))

let diff_sweep_covers_superinstructions () =
  let seen =
    List.sort_uniq compare
      (List.concat_map
         (fun seed ->
           match load_gen (gen_program ~seed) with
           | Error _ -> []
           | Ok program -> superinstructions (Compile.get program))
         (List.init 80 (fun k -> 9000 + k)))
  in
  Alcotest.(check (list string)) "every superinstruction in the corpus"
    [ "Call_l"; "Descent"; "Jz_si"; "Stmt_bin_si"; "Stmt_jz_si"; "Stmt_load";
      "return chain" ]
    seen

(* A step limit that lands on a fused statement head: both engines count
   the step, then stop at that statement with the same message, having
   charged the same statements before it.  Line 2 compiles to [Descent]
   (the plain [Stmt_jz_si] when the limit falls inside the descent), line
   3 to [Stmt_bin_si] and line 5 to [Stmt_load]. *)
let step_limit_on_fused_heads () =
  let source =
    "fn down(d, n) {\n\
    \  if (d > 0) {\n\
    \    return down(d - 1, n);\n\
    \  }\n\
    \  return n;\n\
     }\n\
     fn main() { return down(3, 5); }\n"
  in
  let program = Result.get_ok (load_gen source) in
  let heads = superinstructions (Compile.get program) in
  List.iter
    (fun k ->
      if not (List.mem k heads) then Alcotest.failf "down compiles no %s" k)
    [ "Descent"; "Stmt_bin_si"; "Stmt_load" ];
  List.iter
    (fun (step_limit, line) ->
      let a = d_observe Engine.Interp program ~inputs:[||] ~seed:1 ~step_limit in
      let b = d_observe Engine.Vm program ~inputs:[||] ~seed:1 ~step_limit in
      if a <> b then
        Alcotest.failf "limit %d: engines diverge:%s" step_limit (describe_diff a b);
      Alcotest.(check (option string))
        (Printf.sprintf "limit %d stops at line %d" step_limit line)
        (Some
           (Printf.sprintf "gen.mc:%d: step limit exceeded (%d statements)" line
              step_limit))
        b.d_crashed)
    [ (3, 2); (4, 3); (7, 2); (8, 5) ];
  let whole = d_observe Engine.Vm program ~inputs:[||] ~seed:1 ~step_limit:9 in
  Alcotest.(check int) "nine statements run under a limit of nine" 9 whole.d_steps

(* A step limit at every level of a depth-5 descent: steps 2-11 are its
   five levels (guard on line 2, [return] on line 3), 12 the bottom guard
   and 13 the leaf.  The VM runs the levels as one instruction only when
   all of their steps fit under the limit, so every limit below 11 falls
   inside the descent and stops both engines at the same statement. *)
let step_limit_inside_descent () =
  let source =
    "fn down(d, n) {\n\
    \  if (d > 0) {\n\
    \    return down(d - 1, n);\n\
    \  }\n\
    \  return n;\n\
     }\n\
     fn main() { return down(5, 7); }\n"
  in
  let program = Result.get_ok (load_gen source) in
  if not (List.mem "Descent" (superinstructions (Compile.get program))) then
    Alcotest.fail "down compiles no Descent";
  for step_limit = 0 to 13 do
    let a = d_observe Engine.Interp program ~inputs:[||] ~seed:1 ~step_limit in
    let b = d_observe Engine.Vm program ~inputs:[||] ~seed:1 ~step_limit in
    if a <> b then
      Alcotest.failf "limit %d: engines diverge:%s" step_limit (describe_diff a b);
    let stopped = step_limit + 1 in
    let line =
      if stopped = 1 then 7 else if stopped = 13 then 5 else 2 + (stopped mod 2)
    in
    Alcotest.(check (option string))
      (Printf.sprintf "limit %d stops at line %d" step_limit line)
      (if step_limit = 13 then None
       else
         Some
           (Printf.sprintf "gen.mc:%d: step limit exceeded (%d statements)" line
              step_limit))
      b.d_crashed
  done

(* The [--events] stream of a program whose descents cross snapshot
   boundaries: a snapshot taken inside a descent shows the profile of its
   own instant, so the VM runs such a descent a level at a time, and both
   engines write the same bytes.  The larger intervals leave most
   descents clear of a boundary, so the counted path runs too. *)
let events engine program ~snapshot_cycles =
  let path = Filename.temp_file "csod_descent" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Flight_recorder.with_recorder
            (Flight_recorder.create ~capacity:64 ~stream:oc ())
            (fun () ->
              ignore
                (Execution.run_program ~program ~inputs:[||]
                   ~config:Config.csod_default ~engine ~snapshot_cycles ())));
      In_channel.with_open_bin path In_channel.input_all)

let snapshot_inside_descent () =
  let source =
    "fn get(d, size) {\n\
    \  if (d > 0) { return get(d - 1, size); }\n\
    \  return malloc(size);\n\
     }\n\
     fn main() {\n\
    \  for (var i = 0; i < 12; i = i + 1) {\n\
    \    var p = get(3 * i + 1, 16 + i);\n\
    \    p[0] = i;\n\
    \    free(p);\n\
    \  }\n\
    \  return 0;\n\
     }\n"
  in
  let program = Result.get_ok (load_gen source) in
  List.iter
    (fun snapshot_cycles ->
      let a = events Engine.Interp program ~snapshot_cycles in
      let b = events Engine.Vm program ~snapshot_cycles in
      let snapshots =
        List.length
          (List.filter
             (fun l -> String.starts_with ~prefix:{|{"event":"snapshot"|} l)
             (String.split_on_char '\n' b))
      in
      if snapshots = 0 then
        Alcotest.failf "interval %d: no snapshot in the stream" snapshot_cycles;
      Alcotest.(check string)
        (Printf.sprintf "interval %d: identical event streams" snapshot_cycles)
        a b)
    [ 5; 7; 31; 97; 1_000 ]

(* Near misses of the descent shape compile to no [Descent], and each
   runs the same under both engines; the exact shape, at one, two and
   three parameters, compiles to one. *)
let descent_near_misses () =
  let descents source =
    let program = Result.get_ok (load_gen source) in
    let a = d_observe Engine.Interp program ~inputs:[||] ~seed:1 ~step_limit:50_000 in
    let b = d_observe Engine.Vm program ~inputs:[||] ~seed:1 ~step_limit:50_000 in
    if a <> b then Alcotest.failf "engines diverge:%s\n%s" (describe_diff a b) source;
    Array.fold_left
      (fun n i -> match i with Compile.Descent _ -> n + 1 | _ -> n)
      0 (Compile.get program).Compile.instrs
  in
  List.iter
    (fun (name, want, source) ->
      Alcotest.(check int) name want (descents source))
    [ ( ">= guard", 0,
        "fn f(d, n) { if (d >= 1) { return f(d - 1, n); } return n; }\n\
         fn main() { return f(6, 2); }" );
      ( "non-constant step", 0,
        "fn f(d, n) { if (d > 0) { return f(d - n, n); } return n; }\n\
         fn main() { return f(6, 2); }" );
      ( "permuted arguments", 0,
        "fn f(d, a, b, c) { if (d > 0) { return f(d - 1, b, a, c); } return a - b + c; }\n\
         fn main() { return f(5, 2, 9, 4); }" );
      ( "call to another function", 0,
        "fn g(d, n) { return d + n; }\n\
         fn f(d, n) { if (d > 0) { return g(d - 1, n); } return n; }\n\
         fn main() { return f(6, 2); }" );
      ( "guard not the first statement", 0,
        "fn f(d, n) { work(1); if (d > 0) { return f(d - 1, n); } return n; }\n\
         fn main() { return f(6, 2); }" );
      ( "one parameter", 1,
        "fn f(d) { if (d > 2) { return f(d - 3); } return d; }\n\
         fn main() { return f(20); }" );
      ( "two parameters", 1,
        "fn f(d, n) { if (d > 0) { return f(d - 1, n); } return n; }\n\
         fn main() { return f(6, 2); }" );
      ( "three parameters", 1,
        "fn f(d, a, b) { if (d > 1) { return f(d - 2, a, b); } return a * b + d; }\n\
         fn main() { return f(9, 2, 5); }" ) ]

let suite =
  [ Alcotest.test_case "sim sweep: heap + sparse memory" `Quick prop_heap;
    Alcotest.test_case "sim sweep: runtime watchpoints" `Quick prop_runtime;
    Alcotest.test_case "sim sweep: fleet barriers + crash-resume" `Quick
      prop_fleet;
    Alcotest.test_case "sim sweep: persist save/load/merge" `Quick prop_store;
    Alcotest.test_case "legacy pin: heap free honoured exactly once" `Quick
      legacy_heap_no_double_free;
    Alcotest.test_case "differential sweep: interp vs vm bit-identical" `Quick
      diff_sweep_engines;
    Alcotest.test_case "differential sweep catches vm-buggy-cycles" `Quick
      diff_sweep_catches_planted_bug;
    Alcotest.test_case "differential sweep compiles every superinstruction" `Quick
      diff_sweep_covers_superinstructions;
    Alcotest.test_case "step limit on a fused statement head" `Quick
      step_limit_on_fused_heads;
    Alcotest.test_case "step limit inside a descent" `Quick
      step_limit_inside_descent;
    Alcotest.test_case "snapshot boundary inside a descent" `Quick
      snapshot_inside_descent;
    Alcotest.test_case "descent near misses compile plainly" `Quick
      descent_near_misses ]
