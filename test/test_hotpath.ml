(* Pins for the per-allocation and per-access hot paths: they allocate
   nothing on the OCaml heap (the CSOD allocation path included), a
   context's first sight allocates its entry and no list, and the
   debug-register bookkeeping costs the
   same per thread whether 2 or 16 threads exist.  Allocation is counted
   with [Gc.minor_words], which is exact and deterministic, so these pins
   never flake the way host-time thresholds would.  Only native code
   unboxes; bytecode allocates everywhere, so there the allocation pins
   only run the code. *)

let native = Sys.backend_type = Sys.Native

(* Minor words [f ()] allocates. *)
let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let check_no_alloc name f =
  f ();
  let w = words f in
  if native then Alcotest.(check (float 0.0)) (name ^ ": minor words") 0.0 w

let spawn_threads m n =
  for i = 2 to n do
    ignore (Threads.spawn (Machine.threads m) ~name:(Printf.sprintf "w%d" i))
  done

(* ---------- Debug registers: a model of the comparator ---------- *)

(* Open, enable, disable, close and access at random over 40 threads and
   six candidate addresses (more than the four slots), checking every
   comparator answer, slot refusal and armed count against a list model:
   the lowest enabled fd of the accessing thread whose 8 bytes overlap the
   access. *)
let test_hw_model () =
  let hw = Hw_breakpoint.create () in
  let g = Prng.create ~seed:17 in
  let addrs = [| 0x1000; 0x1008; 0x1010; 0x2000; 0x2004; 0x3000 |] in
  (* (fd, addr, tid, enabled) of every open event *)
  let model = ref [] in
  let overlap a l w = a < w + Hw_breakpoint.watch_len && w < a + l in
  for step = 1 to 20_000 do
    let tag = Printf.sprintf "step %d" step in
    match Prng.int g 10 with
    | 0 | 1 ->
      let addr = addrs.(Prng.int g (Array.length addrs)) in
      let tid = Prng.int g 40 in
      let distinct = List.sort_uniq compare (List.map (fun (_, a, _, _) -> a) !model) in
      (match Hw_breakpoint.perf_event_open hw ~addr ~tid with
      | Ok fd -> model := (fd, addr, tid, false) :: !model
      | Error `ENOSPC ->
        Alcotest.(check bool) (tag ^ ": ENOSPC only past four addresses") true
          (List.length distinct >= Hw_breakpoint.num_slots
          && not (List.mem addr distinct))
      | Error _ -> Alcotest.fail (tag ^ ": unexpected open failure"))
    | 2 | 3 | 4 when !model <> [] ->
      let fd, addr, tid, _ = List.nth !model (Prng.int g (List.length !model)) in
      let on = Prng.bool g in
      if on then Hw_breakpoint.ioctl_enable hw fd else Hw_breakpoint.ioctl_disable hw fd;
      model :=
        List.map (fun ((f, _, _, _) as e) -> if f = fd then (fd, addr, tid, on) else e) !model
    | 5 when !model <> [] ->
      let fd, _, _, _ = List.nth !model (Prng.int g (List.length !model)) in
      Hw_breakpoint.close hw fd;
      model := List.filter (fun (f, _, _, _) -> f <> fd) !model
    | _ ->
      let addr = 0xFF8 + Prng.int g 0x2010 and len = if Prng.bool g then 8 else 1 in
      let tid = Prng.int g 40 in
      let expected =
        List.fold_left
          (fun best (fd, a, t, on) ->
            if on && t = tid && overlap addr len a then
              match best with Some b when b < fd -> best | _ -> Some fd
            else best)
          None !model
      in
      Alcotest.(check (option int)) (tag ^ ": comparator") expected
        (Hw_breakpoint.check_access hw ~addr ~len ~kind:Hw_breakpoint.Read ~tid);
      Alcotest.(check int) (tag ^ ": armed count")
        (List.length (List.filter (fun (_, _, _, on) -> on) !model))
        (Hw_breakpoint.armed_count hw)
  done

(* Installing one watchpoint for every thread, then removing it: the
   allocation per thread must not grow with the number of threads (it grew
   quadratically while every open rescanned all open events). *)
let test_hw_install_linear () =
  let install_remove threads =
    let m = Machine.create () in
    spawn_threads m threads;
    let tids = Threads.alive (Machine.threads m) in
    let round () =
      let fds =
        List.filter_map
          (fun tid ->
            match Machine.install_watch m ~addr:0x5000 ~tid with
            | Ok fd -> Some fd
            | Error _ -> None)
          tids
      in
      Alcotest.(check int) "one event per thread" threads (List.length fds);
      List.iter (Machine.remove_watch m) fds
    in
    round ();
    words round
  in
  let w2 = install_remove 2 and w9 = install_remove 9 and w16 = install_remove 16 in
  if native then
    Alcotest.(check (float 0.0)) "second 7 threads cost what the first 7 did"
      (w9 -. w2) (w16 -. w9)

(* ---------- Allocation-free hot paths ---------- *)

let test_prng_no_alloc () =
  let g = Prng.create ~seed:5 in
  let sink = ref 0 in
  check_no_alloc "int" (fun () -> for _ = 1 to 10_000 do sink := !sink + Prng.int g 97 done);
  check_no_alloc "bits53" (fun () -> for _ = 1 to 10_000 do sink := !sink + Prng.bits53 g done);
  check_no_alloc "bool" (fun () -> for _ = 1 to 10_000 do if Prng.bool g then incr sink done);
  check_no_alloc "below_percent" (fun () ->
      for _ = 1 to 10_000 do if Prng.below_percent g 0.3 then incr sink done);
  ignore (Sys.opaque_identity !sink)

let test_sparse_mem_no_alloc () =
  let mem = Sparse_mem.create () in
  let sink = ref 0 in
  (* Alternating between two chunks, one of them never written, so every
     read misses the last-chunk cache: the miss path allocates nothing
     either. *)
  let addr i = if i land 1 = 0 then 0x1000_0000 + (i * 8 land 0xFFF8) else 0x7000_0000 in
  check_no_alloc "write_int" (fun () ->
      for i = 0 to 9_999 do Sparse_mem.write_int mem (0x1000_0000 + (i * 8 land 0xFFF8)) i done);
  check_no_alloc "read_int" (fun () ->
      for i = 0 to 9_999 do sink := !sink + Sparse_mem.read_int mem (addr i) done);
  check_no_alloc "equal_u64" (fun () ->
      for i = 0 to 9_999 do if Sparse_mem.equal_u64 mem (addr i) 7L then incr sink done);
  ignore (Sys.opaque_identity !sink)

let test_machine_access_no_alloc () =
  let m = Machine.create () in
  spawn_threads m 16;
  (* Every thread watches four far-away words: the comparator has four
     busy slots and 64 armed events, and no access hits them. *)
  List.iter
    (fun tid ->
      for k = 0 to 3 do
        match Machine.install_watch m ~addr:(0x4000_0000 + (k * 64)) ~tid with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "install failed"
      done)
    (Threads.alive (Machine.threads m));
  Alcotest.(check int) "all armed" 64 (Hw_breakpoint.armed_count (Machine.hw m));
  let sink = ref 0 in
  (* 256 KiB: four chunks, switched between every 8,192 accesses. *)
  let addr i = 0x1000_0000 + (i * 8 land 0x3FFF8) in
  check_no_alloc "store_word" (fun () ->
      for i = 0 to 99_999 do Machine.store_word m (addr i) i done);
  check_no_alloc "load_word" (fun () ->
      for i = 0 to 99_999 do sink := !sink + Machine.load_word m (addr i) done);
  ignore (Sys.opaque_identity !sink)

(* The raw heap keeps its objects and free blocks in flat int arrays, so
   once they have grown, malloc and free allocate nothing: small and large
   blocks, reused and freshly carved. *)
let test_heap_no_alloc () =
  let h = Heap.create (Machine.create ()) in
  let live = Array.make 512 0 in
  let k = ref 0 in
  check_no_alloc "malloc/free" (fun () ->
      for _ = 1 to 10_000 do
        incr k;
        let slot = !k * 7 land 511 in
        if live.(slot) <> 0 then Heap.free h live.(slot);
        let size = if !k mod 61 = 0 then 5_000 + (!k mod 3 * 100) else !k mod 13 * 40 in
        live.(slot) <- Heap.malloc h size
      done)

(* A heap handed on through the domain's spare keeps its free-block stacks
   table at its grown size: the next heap's first large-block [free] and
   the [malloc] that reuses that block allocate nothing. *)
let test_recycled_heap_large_block_no_alloc () =
  let cycle () =
    let m = Machine.create () in
    let h = Heap.create m in
    let p = Heap.malloc h 5_000 in
    let w = words (fun () -> Heap.free h p; ignore (Heap.malloc h 5_000)) in
    Sparse_mem.release (Machine.mem m);
    w
  in
  ignore (cycle ());
  let w = cycle () in
  if native then Alcotest.(check (float 0.0)) "free + reuse: minor words" 0.0 w

(* On a warm domain a machine's first write to a chunk takes a pooled page
   and binds it in the chunk index, allocating nothing. *)
let test_pooled_chunk_write_no_alloc () =
  let cycle () =
    let mem = Sparse_mem.create () in
    let w = words (fun () -> Sparse_mem.write_int mem 0x1000_0000 7) in
    Sparse_mem.release mem;
    w
  in
  ignore (cycle ());
  let w = cycle () in
  if native then Alcotest.(check (float 0.0)) "first write: minor words" 0.0 w

(* Freeing an object scans the four ring slots for its watchpoint: a miss
   allocates nothing, and neither does a hit, which closes the
   watchpoint's perf event on every thread. *)
let test_watch_on_free_no_alloc () =
  let m = Machine.create () in
  spawn_threads m 4;
  let rng = Prng.create ~seed:3 in
  let params = Params.default in
  let ct = Context_table.create ~params ~machine:m ~rng in
  let wt = Watch_table.create ~params ~machine:m ~rng in
  let entry = Context_table.on_allocation ct (Alloc_ctx.synthetic ~callsite:0x40 ()) in
  let objs = [| 0x1000_0000; 0x1000_0100; 0x1000_0200 |] in
  let install () =
    Array.iter
      (fun a ->
        Alcotest.(check bool) "installed" true
          (Watch_table.install wt ~obj_addr:a ~watch_addr:(a + 64) ~entry))
      objs
  in
  install ();
  let hits = ref 0 in
  check_no_alloc "miss" (fun () ->
      for i = 1 to 1_000 do
        if Watch_table.on_free wt ~obj_addr:(0x2000_0000 + (16 * i)) then incr hits
      done);
  Alcotest.(check int) "no hit" 0 !hits;
  for round = 1 to 3 do
    if round > 1 then install ();
    let w =
      words (fun () ->
          for i = 0 to Array.length objs - 1 do
            if Watch_table.on_free wt ~obj_addr:objs.(i) then incr hits
          done)
    in
    Alcotest.(check int) "every watchpoint removed" (3 * round) !hits;
    Alcotest.(check int) "no perf event left" 0 (Hw_breakpoint.live_fd_count (Machine.hw m));
    if native then Alcotest.(check (float 0.0)) "hit: minor words" 0.0 w
  done

(* The watch table keeps its four watchpoints in reused slots and each
   thread's descriptors in one flat row, and the debug registers keep the
   open events in a flat table: once the tables have grown, installing a
   watchpoint on every thread and removing it again allocates nothing, on
   one thread or sixteen.  Removal here is the [free] of the watched
   object. *)
let test_watch_install_remove_no_alloc () =
  List.iter
    (fun threads ->
      let m = Machine.create () in
      spawn_threads m threads;
      let rng = Prng.create ~seed:3 in
      let params = Params.default in
      let ct = Context_table.create ~params ~machine:m ~rng in
      let wt = Watch_table.create ~params ~machine:m ~rng in
      let entry = Context_table.on_allocation ct (Alloc_ctx.synthetic ~callsite:0x40 ()) in
      (* Another watchpoint stays installed throughout, so the pair shares
         the tables with a live neighbour. *)
      ignore (Watch_table.install wt ~obj_addr:0x2000_0000 ~watch_addr:0x2000_0040 ~entry);
      let pairs = ref 0 in
      check_no_alloc (Printf.sprintf "install + on_free, %d threads" threads) (fun () ->
          for i = 1 to 1_000 do
            let a = 0x1000_0000 + (i * 64) in
            if Watch_table.install wt ~obj_addr:a ~watch_addr:(a + 32) ~entry
               && Watch_table.on_free wt ~obj_addr:a
            then incr pairs
          done);
      Alcotest.(check int) "every pair installed and removed" 2_000 !pairs;
      Alcotest.(check int) "only the neighbour's events open" threads
        (Hw_breakpoint.live_fd_count (Machine.hw m)))
    [ 1; 16 ]

(* [n] allocations over 64 call sites, each freeing the object 256
   allocations older. *)
let alloc_loop tool =
  let ctxs = Array.init 64 (fun i -> Alloc_ctx.synthetic ~callsite:(0x40 + i) ()) in
  let live = Array.make 256 0 in
  let k = ref 0 in
  fun n ->
    for _ = 1 to n do
      incr k;
      let slot = !k land 255 in
      if live.(slot) <> 0 then tool.Tool.free ~ptr:live.(slot);
      live.(slot) <- tool.Tool.malloc ~size:(16 + (!k mod 7 * 24)) ~ctx:ctxs.(!k / 256 mod 64)
    done

(* The CSOD layers (context table, sampling coin, canary plant and check,
   header reads) add nothing to the raw heap's own allocation once every
   context has been seen: the sampling probability stays unboxed from
   [Context_table] through [Runtime] into [Prng], and the header is
   written and read through the runtime's own buffer.  This is the steady
   state of runs of 256 allocations from each of 64 call sites; a first
   sight still allocates its entry, so this pins the lookup-hit path
   only.  The state is measured after the warm-up has decayed every
   context's probability.  Before the probability was unboxed this read
   2 words per allocation. *)
let test_csod_alloc_path_no_alloc () =
  let baseline =
    let m = Machine.create () in
    alloc_loop (Tool.baseline (Heap.create m))
  in
  let csod =
    let m = Machine.create () in
    spawn_threads m 16;
    let rt = Runtime.create ~machine:m ~heap:(Heap.create m) () in
    alloc_loop (Runtime.tool rt)
  in
  baseline 100_000;
  csod 100_000;
  let n = 20_000 in
  let wb = words (fun () -> baseline n) and wc = words (fun () -> csod n) in
  if native then
    Alcotest.(check (float 0.0))
      (Printf.sprintf "CSOD adds 0 words per allocation (heap %.0f, CSOD %.0f)" wb wc)
      0.0 (wc -. wb)

(* The CSOD pair itself, with no baseline to subtract: a warm
   evidence-mode [malloc] and [free] through the runtime (the canary's
   plant, the header and canary read in one pass at [free], and the
   counted check) allocate nothing, on one thread and on sixteen.  The
   context is in the evidence store, so it is pinned and every [malloc]
   installs a watchpoint on every thread that its [free] removes. *)
let test_csod_pair_no_alloc () =
  List.iter
    (fun threads ->
      let m = Machine.create () in
      spawn_threads m threads;
      let ctx = Alloc_ctx.synthetic ~callsite:0x40 () in
      let store = Persist.create () in
      Persist.add store (Alloc_ctx.key ctx);
      let rt = Runtime.create ~store ~machine:m ~heap:(Heap.create m) () in
      let tool = Runtime.tool rt in
      let pairs () =
        for i = 1 to 1_000 do
          tool.Tool.free ~ptr:(tool.Tool.malloc ~size:(16 + (i land 7 * 24)) ~ctx)
        done
      in
      check_no_alloc (Printf.sprintf "malloc + free, %d threads" threads) pairs;
      let st = Runtime.stats rt in
      Alcotest.(check (pair int int)) "every pair watched and checked" (2_000, 2_000)
        (st.Runtime.watched_times, st.Runtime.canary_checks);
      Alcotest.(check int) "no event left open" 0
        (Hw_breakpoint.live_fd_count (Machine.hw m)))
    [ 1; 16 ]

(* A context's first sight writes its full chain straight into the
   table's buffer: it allocates the entry (its record, its sampling
   record, its key pair) and no list, so the words per first sight do not
   grow with the chain's depth.  Measured on a table whose arrays a
   released table of the same size handed on, so nothing grows. *)
let test_first_sight_no_list () =
  let params = Params.default in
  let contexts = 200 in
  let first_sights depth =
    let ctx =
      { Alloc_ctx.callsite = 0;
        stack_offset = 0;
        write = (fun c -> for pc = 1 to depth do Alloc_ctx.push c pc done) }
    in
    let cycle () =
      let m = Machine.create () in
      let ct = Context_table.create ~params ~machine:m ~rng:(Prng.create ~seed:3) in
      let w =
        words (fun () ->
            for i = 1 to contexts do
              Alloc_ctx.point ctx ~callsite:(0x40 + i) ~stack_offset:(i land 7);
              ignore (Context_table.on_allocation ct ctx)
            done)
      in
      Alcotest.(check int) "every context new" contexts (Context_table.num_contexts ct);
      Sparse_mem.release (Machine.mem m);
      w
    in
    ignore (cycle ());
    cycle ()
  in
  let shallow = first_sights 1 and deep = first_sights 300 in
  if native then begin
    Alcotest.(check (float 0.0)) "a 300-frame chain costs what a 1-frame one does" shallow deep;
    Alcotest.(check bool)
      (Printf.sprintf "%.1f words per first sight <= 18" (deep /. float_of_int contexts))
      true
      (deep <= 18. *. float_of_int contexts)
  end

(* ---------- Executions allocate nothing in the major heap ---------- *)

(* Words [f ()] allocates directly in the major heap: every block larger
   than the minor heap admits.  Promotions are subtracted, since they are
   minor words that survived.  [Gc.counters] is exact; [Gc.quick_stat]
   would read counters the runtime updates lazily. *)
let direct_major_words f =
  let _, p0, j0 = Gc.counters () in
  f ();
  let _, p1, j1 = Gc.counters () in
  j1 -. j0 -. (p1 -. p0)

(* The heap's and the context table's arrays, the VM's stack
   and locals and ASan's registry are recycled through domain-local
   spares, and ASan's shadow pages through the page pool, all handed on
   when the execution releases its machine's memory.  So once a domain is
   warm (the first execution builds them, the second finds what the first
   released), an execution allocates nothing in the major heap under any
   tool.  Before recycling: 8,196 words under CSOD, 6,147 under Baseline
   and 7,172-15,366 under ASan. *)
let test_execution_no_major_words () =
  List.iter
    (fun app ->
      List.iter
        (fun config ->
          let run () = ignore (Execution.run ~app ~config ~seed:3 ()) in
          run ();
          run ();
          let w = direct_major_words run in
          if native then
            Alcotest.(check (float 0.0))
              (Printf.sprintf "%s under %s: direct major words" app.Buggy_app.name
                 (Config.label config))
              0.0 w)
        [ Config.csod_default; Config.Baseline; Config.asan_default ])
    (Buggy_app.all ())

(* ---------- Fixed cost of an execution ---------- *)

(* Minor words of one execution's set-up and teardown on a warm domain:
   [Machine.create], [Heap.create], the CSOD runtime from
   [Config.instantiate], one malloc and free (so the release has a heap
   store and a context table to hand on) and [Sparse_mem.release].
   Measured on x86-64, OCaml 5.1: 2,704 words while the release built
   fresh stores for the released heap and context table and each
   registry was three hash tables; 1,000 with keyed registries and
   released tables pointing at shared empty stores.  What remains is
   mostly the records and small tables each layer builds (the runtime's
   streams and its table of reported objects, the watch table's
   descriptor table, the registries' arrays); the bound leaves 10%. *)
let test_fixed_cost_words () =
  let ctx = Alloc_ctx.synthetic ~callsite:0x40 () in
  let once seed =
    let machine = Machine.create ~seed () in
    let heap = Heap.create machine in
    let inst = Config.instantiate Config.csod_default ~machine ~heap ~seed () in
    let tool = inst.Config.tool in
    tool.Tool.free ~ptr:(tool.Tool.malloc ~size:24 ~ctx);
    inst.Config.finish ();
    Sparse_mem.release (Machine.mem machine)
  in
  once 1;
  once 2;
  let w = words (fun () -> once 3) in
  if native then
    Alcotest.(check bool) (Printf.sprintf "%.0f words <= 1,100" w) true (w <= 1_100.)

(* ---------- Per-layer allocation ladder ---------- *)

(* A tool with no heap: [malloc] bumps the break, [free] does nothing. *)
let bump_tool m =
  { Tool.name = "bump";
    malloc = (fun ~size ~ctx:_ -> Machine.sbrk m (max size 1));
    free = (fun ~ptr:_ -> ());
    on_access = (fun ~addr:_ ~len:_ ~kind:_ ~site:_ -> ());
    at_exit = ignore;
    extra_resident_bytes = (fun () -> 0) }

(* Minor and promoted words of one warm Heartbleed execution on the VM
   against the tool [rung] builds on a fresh machine: the third of three,
   from an empty minor heap, so every run before it has handed its tables
   to the domain's spares. *)
let heartbleed_words rung =
  let app = Option.get (Buggy_app.by_name "Heartbleed") in
  let program = Buggy_app.program app in
  let run () =
    let machine = Machine.create ~seed:3 () in
    let tool = rung machine in
    ignore
      (Engine.run ~engine:Engine.Vm ~machine ~tool ~program
         ~inputs:app.Buggy_app.buggy_inputs ~app_seed:3 ());
    tool.Tool.at_exit ();
    Sparse_mem.release (Machine.mem machine)
  in
  run ();
  run ();
  Gc.minor ();
  let minor0 = Gc.minor_words () and _, promoted0, _ = Gc.counters () in
  run ();
  let minor1 = Gc.minor_words () and _, promoted1, _ = Gc.counters () in
  (minor1 -. minor0, promoted1 -. promoted0)

(* Each rung adds one layer to the one below it: the VM alone, then the
   raw heap, then CSOD.  Measured on x86-64, OCaml 5.1 (minor / promoted
   words per execution):

   | rung           | frames in a list, contexts as lists | heap and SMU in records | flat tables | flat watchpoints | re-pointed handles |
   |----------------|-------------------------------------|-------------------------|-------------|------------------|--------------------|
   | VM + bump tool |                           586k / 2k |             22.6k / 0   | 22.6k / 0   | 22.2k / 0        | 616 / 0            |
   | + raw heap     |                           702k / 6k |            138.8k / 0   | 23.8k / 0   | 22.3k / 0        | 625 / 0            |
   | + CSOD         |                         893k / 142k |         332.3k / 14.3k  | 193.2k / 0  | 169.8k / 0       | 6,583 / 0          |

   The VM re-points its one [Alloc_ctx.t] at each of the 5,403
   [malloc]s instead of building one, so what it allocates is its run's
   fixed set-up; the raw heap adds only the small arrays a released heap
   keeps.  What CSOD adds is the 307 first-sight contexts, 18 words each
   (entry, sampling record, key pair), since the VM writes each full
   chain straight into the table's buffer instead of handing over a list;
   its hit path, watchpoint installs and removals add nothing.  The bounds
   leave about 15% slack on minor words; promoted words depend on where
   the minor collections fall. *)
let test_allocation_ladder () =
  let vm, _ = heartbleed_words bump_tool in
  let heap, _ = heartbleed_words (fun m -> Tool.baseline (Heap.create m)) in
  let csod, promoted =
    heartbleed_words (fun m ->
        Runtime.tool (Runtime.create ~machine:m ~heap:(Heap.create m) ~seed:3 ()))
  in
  if native then
    List.iter
      (fun (name, w, bound) ->
        Alcotest.(check bool) (Printf.sprintf "%s: %.0f words <= %.0f" name w bound)
          true (w <= bound))
      [ ("VM + bump tool, minor", vm, 710.);
        ("+ raw heap, minor", heap, 720.);
        ("+ CSOD, minor", csod, 7_600.);
        ("+ CSOD, promoted", promoted, 3_000.) ]

let suite =
  [ Alcotest.test_case "hw: comparator agrees with a model over 40 threads" `Quick
      test_hw_model;
    Alcotest.test_case "hw: install cost per thread independent of thread count"
      `Quick test_hw_install_linear;
    Alcotest.test_case "allocation-free: prng draws" `Quick test_prng_no_alloc;
    Alcotest.test_case "allocation-free: sparse-memory words" `Quick
      test_sparse_mem_no_alloc;
    Alcotest.test_case "allocation-free: checked accesses, 16 threads armed" `Quick
      test_machine_access_no_alloc;
    Alcotest.test_case "allocation-free: heap malloc/free" `Quick test_heap_no_alloc;
    Alcotest.test_case "allocation-free: recycled heap's first large-block free and reuse"
      `Quick test_recycled_heap_large_block_no_alloc;
    Alcotest.test_case "allocation-free: warm domain's first write to a pooled chunk"
      `Quick test_pooled_chunk_write_no_alloc;
    Alcotest.test_case "allocation-free: watch table on_free, hit and miss" `Quick
      test_watch_on_free_no_alloc;
    Alcotest.test_case "allocation-free: watch install and removal, 1 and 16 threads"
      `Quick test_watch_install_remove_no_alloc;
    Alcotest.test_case "allocation-free: CSOD malloc/free over the heap's" `Quick
      test_csod_alloc_path_no_alloc;
    Alcotest.test_case "allocation-free: warm CSOD malloc/free pair, 1 and 16 threads"
      `Quick test_csod_pair_no_alloc;
    Alcotest.test_case "no major-heap words: warm execution, 9 apps x 3 tools"
      `Quick test_execution_no_major_words;
    Alcotest.test_case "fixed cost: set-up and release, warm domain" `Quick
      test_fixed_cost_words;
    Alcotest.test_case "allocation ladder: warm Heartbleed, VM / + heap / + CSOD"
      `Quick test_allocation_ladder;
    Alcotest.test_case "first sight: entry only, no list, whatever the depth" `Quick
      test_first_sight_no_list ]
