(* Tests for the CSOD core: sampling unit, watchpoint unit, canary layout,
   persistence, and reports. *)

let sec s = s * Cost.cycles_per_second

let mk_ct ?(params = Params.default) () =
  let machine = Machine.create ~seed:9 () in
  let rng = Prng.create ~seed:1 in
  (Context_table.create ~params ~machine ~rng, machine)

let ctx ?(off = 0) callsite = Alloc_ctx.synthetic ~callsite ~stack_offset:off ()

let feq = Alcotest.float 1e-9

(* A planted header's three fields, [None] without the CSOD identifier. *)
let read_header c ~app =
  if Canary.read_header c ~app then
    Some (Canary.real_base c, Canary.object_size c, Canary.context_id c)
  else None

(* The CallingContextPtr field, identifier or not. *)
let context_id c ~app =
  ignore (Canary.read_header c ~app);
  Canary.context_id c

(* ---------- Context_table ---------- *)

let test_ct_initial_prob () =
  let ct, _ = mk_ct () in
  let e = Context_table.on_allocation ct (ctx 1) in
  Alcotest.check feq "0.5 minus one degradation"
    (0.5 -. Params.default.Params.degrade_per_alloc) (Context_table.prob e);
  Alcotest.(check int) "alloc counted" 1 e.Context_table.allocs;
  Alcotest.(check int) "one context" 1 (Context_table.num_contexts ct)

let test_ct_key_identity () =
  let ct, _ = mk_ct () in
  let e1 = Context_table.on_allocation ct (ctx ~off:0 1) in
  let e2 = Context_table.on_allocation ct (ctx ~off:0 1) in
  let e3 = Context_table.on_allocation ct (ctx ~off:8 1) in
  let e4 = Context_table.on_allocation ct (ctx ~off:0 2) in
  Alcotest.(check bool) "same site+offset: same entry" true (e1 == e2);
  Alcotest.(check bool) "different offset: new entry" true (e1 != e3);
  Alcotest.(check bool) "different site: new entry" true (e1 != e4);
  Alcotest.(check int) "three contexts" 3 (Context_table.num_contexts ct);
  Alcotest.(check int) "four allocations" 4 (Context_table.total_allocations ct)

let test_ct_ids_dense () =
  let ct, _ = mk_ct () in
  let e1 = Context_table.on_allocation ct (ctx 1) in
  let e2 = Context_table.on_allocation ct (ctx 2) in
  Alcotest.(check int) "first id" 0 e1.Context_table.id;
  Alcotest.(check int) "second id" 1 e2.Context_table.id;
  Alcotest.(check bool) "find_by_id" true
    (Context_table.find_by_id ct 0 = Some e1 && Context_table.find_by_id ct 1 = Some e2);
  Alcotest.(check (option bool)) "find by key" (Some true)
    (Option.map (fun e -> e == e1) (Context_table.find ct (Alloc_ctx.key (ctx 1))))

(* [find_by_id] is a bounds-checked read of the dense entry array: an id
   just outside it, or one read from a corrupted header, names no
   entry. *)
let test_ct_find_by_id_bounds () =
  let ct, m = mk_ct () in
  for site = 1 to 5 do
    ignore (Context_table.on_allocation ct (ctx site))
  done;
  let n = Context_table.num_contexts ct in
  Alcotest.(check bool) "last id" true (Context_table.find_by_id ct (n - 1) <> None);
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "id %d" id) true
        (Context_table.find_by_id ct id = None))
    [ -1; n; max_int; min_int ];
  let base = Machine.sbrk m 128 in
  let c = Canary.create m 0x1234L in
  let app = Canary.plant c ~base ~size:16 ~ctx_id:2 in
  Alcotest.(check int) "planted id" 2 (context_id c ~app);
  (* an overflow from below rewrote the CallingContextPtr field *)
  Sparse_mem.write_int (Machine.mem m) (base + 16) 0x4141_4141_4141_4141;
  Alcotest.(check bool) "corrupted id" true
    (Context_table.find_by_id ct (context_id c ~app) = None)

let test_ct_degradation_accumulates () =
  let ct, _ = mk_ct () in
  for _ = 1 to 1000 do
    ignore (Context_table.on_allocation ct (ctx 5))
  done;
  let e = Option.get (Context_table.find ct (Alloc_ctx.key (ctx 5))) in
  Alcotest.check (Alcotest.float 1e-6) "1000 degradations"
    (0.5 -. (1000.0 *. 1e-5)) (Context_table.prob e)

let test_ct_watch_halving_and_floor () =
  let ct, _ = mk_ct () in
  let e = Context_table.on_allocation ct (ctx 7) in
  let p0 = Context_table.prob e in
  Context_table.note_watched ct e;
  Alcotest.check feq "halved" (p0 /. 2.0) (Context_table.prob e);
  for _ = 1 to 40 do
    Context_table.note_watched ct e
  done;
  Alcotest.check feq "clamped at the floor" Params.default.Params.min_prob
    (Context_table.prob e);
  Alcotest.(check int) "watch count" 41 e.Context_table.watches

let test_ct_burst_throttle () =
  let ct, machine = mk_ct () in
  let e = ref (Context_table.on_allocation ct (ctx 3)) in
  for _ = 1 to Params.default.Params.burst_threshold + 10 do
    e := Context_table.on_allocation ct (ctx 3)
  done;
  Alcotest.check feq "throttled to burst probability"
    Params.default.Params.burst_prob
    (Context_table.effective_prob ct !e);
  (* Once the window elapses, the throttle expires. *)
  Machine.work machine (sec 11);
  let e = Context_table.on_allocation ct (ctx 3) in
  Alcotest.(check bool) "recovers after the window" true
    (Context_table.effective_prob ct e > Params.default.Params.burst_prob)

let test_ct_no_burst_when_slow () =
  let ct, machine = mk_ct () in
  (* Allocations spread beyond the window never trip the threshold rate
     test because the window counter resets. *)
  for _ = 1 to 10 do
    ignore (Context_table.on_allocation ct (ctx 4));
    Machine.work machine (sec 2)
  done;
  let e = Option.get (Context_table.find ct (Alloc_ctx.key (ctx 4))) in
  Alcotest.(check bool) "no throttle" true
    (Context_table.effective_prob ct e > Params.default.Params.burst_prob)

let test_ct_pin () =
  let ct, _ = mk_ct () in
  let e = Context_table.on_allocation ct (ctx 8) in
  Context_table.pin ct e;
  Alcotest.check feq "pinned at 1" 1.0 (Context_table.effective_prob ct e);
  Context_table.note_watched ct e;
  Alcotest.check feq "watching does not unpin" 1.0 (Context_table.effective_prob ct e)

let test_ct_revive () =
  let params = { Params.default with Params.revive_period_sec = 1.0 } in
  let ct, machine = mk_ct ~params () in
  let e = Context_table.on_allocation ct (ctx 6) in
  for _ = 1 to 60 do
    Context_table.note_watched ct e
  done;
  Alcotest.check feq "at floor" params.Params.min_prob (Context_table.prob e);
  Machine.work machine (sec 5);
  (* Reviving is a low-probability coin per allocation; hammer it. *)
  let revived = ref false in
  let n = ref 0 in
  while (not !revived) && !n < 2_000_000 do
    incr n;
    let e = Context_table.on_allocation ct (ctx 6) in
    if Context_table.prob e >= params.Params.revive_prob -. 1e-9 then revived := true
  done;
  Alcotest.(check bool) "eventually revived to 0.01%" true !revived

let prop_ct_prob_bounds =
  QCheck.Test.make ~name:"probability stays within [min_prob, initial]" ~count:60
    QCheck.(list (pair (int_range 0 5) bool))
    (fun ops ->
      let ct, _ = mk_ct () in
      List.for_all
        (fun (site, watch) ->
          let e = Context_table.on_allocation ct (ctx site) in
          if watch then Context_table.note_watched ct e;
          Context_table.prob e >= Params.default.Params.min_prob -. 1e-12
          && Context_table.prob e <= Params.default.Params.initial_prob +. 1e-12)
        ops)

(* The lookup memo against an exact model.  700 distinct (call site,
   offset) keys are more than the memo's 256 slots, so slots collide and
   entries are evicted and re-fetched from the table.  A seeded stream
   interleaves short hot runs with random keys over 4,000 allocations.
   An assoc list records, per key, the entry first returned and its
   allocation count; ids must follow first-sight order. *)
let test_ct_memo_model () =
  let ct, _ = mk_ct () in
  let g = Prng.create ~seed:77 in
  (* 48 scattered call sites times 64 stack offsets: keys sharing a call
     site, and keys sharing an offset, both land in common memo slots. *)
  let sites = Array.init 48 (fun _ -> 0x400000 + (4 * Prng.int g 0x100000)) in
  let rec distinct acc n =
    if n = 0 then Array.of_list acc
    else
      let k = (sites.(Prng.int g 48), 16 * Prng.int g 64) in
      if List.mem k acc then distinct acc n else distinct (k :: acc) (n - 1)
  in
  let keys = distinct [] 700 in
  let model = ref [] (* key -> (entry, allocs) *) in
  let calls = ref 0 in
  while !calls < 4000 do
    let key = keys.(Prng.int g (Array.length keys)) in
    for _ = 1 to 1 + Prng.int g 3 do
      incr calls;
      let site, off = key in
      let e = Context_table.on_allocation ct (ctx ~off site) in
      Alcotest.(check bool) "entry key" true (e.Context_table.key = key);
      match List.assoc_opt key !model with
      | Some (first, n) ->
        Alcotest.(check bool) "same entry as first sight" true (e == first);
        model := (key, (first, n + 1)) :: List.remove_assoc key !model
      | None ->
        Alcotest.(check int) "id = first-sight rank" (List.length !model)
          e.Context_table.id;
        model := (key, (e, 1)) :: !model
    done
  done;
  Alcotest.(check bool) "more keys than memo slots" true
    (List.length !model >= 600);
  Alcotest.(check int) "num_contexts" (List.length !model)
    (Context_table.num_contexts ct);
  Alcotest.(check int) "total allocations" !calls
    (Context_table.total_allocations ct);
  List.iter
    (fun (_, (e, n)) ->
      Alcotest.(check int) "allocs = model count" n e.Context_table.allocs)
    !model

(* ---------- Watch_table ---------- *)

let mk_wt ?(policy = Params.Near_fifo) () =
  let params = { Params.default with Params.policy } in
  let machine = Machine.create ~seed:4 () in
  let rng = Prng.create ~seed:2 in
  let wt = Watch_table.create ~params ~machine ~rng in
  let ct = Context_table.create ~params ~machine ~rng:(Prng.create ~seed:3) in
  (wt, ct, machine)

let entry_for ct site = Context_table.on_allocation ct (ctx site)

let test_wt_install_and_free () =
  let wt, ct, machine = mk_wt () in
  Alcotest.(check bool) "starts in startup" true (Watch_table.in_startup wt);
  let e = entry_for ct 1 in
  ignore (Watch_table.install wt ~obj_addr:0x100 ~watch_addr:0x140 ~entry:e);
  Alcotest.(check int) "one install" 1 (Watch_table.installs wt);
  Alcotest.(check int) "one live wp" 1 (List.length (Watch_table.live wt));
  Alcotest.(check bool) "slots remain" true (Watch_table.has_free_slot wt);
  Alcotest.(check bool) "still startup until full" true (Watch_table.in_startup wt);
  (* the hardware actually watches the address *)
  let fired = ref 0 in
  Machine.set_trap_handler machine (fun _ -> incr fired);
  ignore (Machine.load_word machine 0x140);
  Alcotest.(check int) "hardware armed" 1 !fired;
  Alcotest.(check bool) "removed on free" true (Watch_table.on_free wt ~obj_addr:0x100);
  Alcotest.(check bool) "second free is a no-op" false
    (Watch_table.on_free wt ~obj_addr:0x100);
  ignore (Machine.load_word machine 0x140);
  Alcotest.(check int) "hardware disarmed" 1 !fired;
  Alcotest.(check int) "no fd leak" 0 (Hw_breakpoint.live_fd_count (Machine.hw machine))

let fill_four wt ct =
  List.iter
    (fun i ->
      ignore
        (Watch_table.install wt ~obj_addr:(0x1000 * i)
           ~watch_addr:((0x1000 * i) + 0x40) ~entry:(entry_for ct i)))
    [ 1; 2; 3; 4 ]

let test_wt_startup_ends_when_full () =
  let wt, ct, _ = mk_wt () in
  fill_four wt ct;
  Alcotest.(check bool) "full" true (not (Watch_table.has_free_slot wt));
  Alcotest.(check bool) "startup over" false (Watch_table.in_startup wt);
  ignore (Watch_table.on_free wt ~obj_addr:0x1000);
  Alcotest.(check bool) "startup stays over after frees" false (Watch_table.in_startup wt)

let test_wt_install_full_fails () =
  let wt, ct, _ = mk_wt () in
  fill_four wt ct;
  Alcotest.check_raises "install on full table"
    (Failure "Watch_table.install: no free slot") (fun () ->
      ignore
        (Watch_table.install wt ~obj_addr:0x9000 ~watch_addr:0x9040
           ~entry:(entry_for ct 9)))

let test_wt_naive_never_replaces () =
  let wt, ct, machine = mk_wt ~policy:Params.Naive () in
  fill_four wt ct;
  Machine.work machine (sec 100); (* victims fully decayed *)
  Alcotest.(check bool) "naive refuses" false
    (Watch_table.try_replace wt ~obj_addr:0x9000 ~watch_addr:0x9040
       ~entry:(entry_for ct 9) ~new_prob:1.0)

let test_wt_near_fifo_replaces_oldest_yielding () =
  let wt, ct, machine = mk_wt ~policy:Params.Near_fifo () in
  fill_four wt ct;
  Machine.work machine (sec 15); (* one half-life: decayed to ~0.25 *)
  let ok =
    Watch_table.try_replace wt ~obj_addr:0x9000 ~watch_addr:0x9040
      ~entry:(entry_for ct 9) ~new_prob:0.4
  in
  Alcotest.(check bool) "replacement happened" true ok;
  let objs = List.map (fun w -> w.Watch_table.obj_addr) (Watch_table.live wt) in
  Alcotest.(check bool) "oldest (obj 1) evicted" false (List.mem 0x1000 objs);
  Alcotest.(check bool) "newcomer present" true (List.mem 0x9000 objs)

let test_wt_young_victims_protected () =
  let wt, ct, _ = mk_wt ~policy:Params.Near_fifo () in
  fill_four wt ct;
  (* no time has passed: all victims hold their full installation
     probability (~0.5), so an equal-probability newcomer is refused *)
  Alcotest.(check bool) "no victim yields" false
    (Watch_table.try_replace wt ~obj_addr:0x9000 ~watch_addr:0x9040
       ~entry:(entry_for ct 9) ~new_prob:0.499)

let test_wt_random_replaces_some_yielding () =
  let wt, ct, machine = mk_wt ~policy:Params.Random () in
  fill_four wt ct;
  Machine.work machine (sec 15);
  let ok =
    Watch_table.try_replace wt ~obj_addr:0x9000 ~watch_addr:0x9040
      ~entry:(entry_for ct 9) ~new_prob:0.4
  in
  Alcotest.(check bool) "random policy replaced one" true ok;
  Alcotest.(check int) "still four watchpoints" 4 (List.length (Watch_table.live wt))

let test_wt_decay_steps () =
  let wt, ct, machine = mk_wt () in
  let e = entry_for ct 1 in
  ignore (Watch_table.install wt ~obj_addr:0x100 ~watch_addr:0x140 ~entry:e);
  let wp = List.hd (Watch_table.live wt) in
  let p0 = Watch_table.decayed_prob wt wp in
  Machine.work machine (sec 9);
  Alcotest.check feq "no decay before a full half-life" p0
    (Watch_table.decayed_prob wt wp);
  Machine.work machine (sec 2);
  Alcotest.check feq "one step after 10s" (p0 /. 2.0) (Watch_table.decayed_prob wt wp);
  Machine.work machine (sec 10);
  Alcotest.check feq "two steps after 20s" (p0 /. 4.0) (Watch_table.decayed_prob wt wp)

let test_wt_thread_propagation () =
  let wt, ct, machine = mk_wt () in
  let e = entry_for ct 1 in
  ignore (Watch_table.install wt ~obj_addr:0x100 ~watch_addr:0x140 ~entry:e);
  let threads = Machine.threads machine in
  let worker = Threads.spawn threads ~name:"w" in
  (* new thread inherits the installed watchpoint *)
  let fired = ref [] in
  Machine.set_trap_handler machine (fun i -> fired := i.Machine.tid :: !fired);
  Threads.set_current threads worker;
  ignore (Machine.load_word machine 0x140);
  Alcotest.(check (list int)) "trap on the new thread" [ worker ] !fired;
  Threads.set_current threads 0;
  Threads.exit_thread threads worker;
  ignore (Machine.load_word machine 0x140);
  Alcotest.(check int) "main still watched" 2 (List.length !fired);
  ignore (Watch_table.on_free wt ~obj_addr:0x100);
  Alcotest.(check int) "all descriptors closed" 0
    (Hw_breakpoint.live_fd_count (Machine.hw machine))

let test_wt_find_by_fd () =
  let wt, ct, machine = mk_wt () in
  ignore (Watch_table.install wt ~obj_addr:0x100 ~watch_addr:0x140 ~entry:(entry_for ct 1));
  let hit = ref None in
  Machine.set_trap_handler machine (fun i -> hit := Some i.Machine.fd);
  ignore (Machine.load_word machine 0x141);
  match !hit with
  | None -> Alcotest.fail "no trap"
  | Some fd -> (
    match Watch_table.find_by_fd wt fd with
    | Some wp -> Alcotest.(check int) "fd maps to watchpoint" 0x100 wp.Watch_table.obj_addr
    | None -> Alcotest.fail "find_by_fd missed")

(* Forty threads watching four objects hold 160 descriptors, more than
   the event table and the descriptor rows start with, and five rounds of
   removal and reinstallation push the fds far past them: every trap's fd
   still names the watchpoint and the thread that took it. *)
let test_wt_many_fds () =
  let wt, ct, machine = mk_wt () in
  let threads = Machine.threads machine in
  for i = 1 to 39 do
    ignore (Threads.spawn threads ~name:(Printf.sprintf "w%d" i))
  done;
  let objs = [| 0x1000; 0x2000; 0x3000; 0x4000 |] in
  let hit = ref (-1) and hit_tid = ref (-1) in
  Machine.set_trap_handler machine (fun i ->
      hit := i.Machine.fd;
      hit_tid := i.Machine.tid);
  for round = 1 to 5 do
    Array.iteri
      (fun k a ->
        Alcotest.(check bool) "installed" true
          (Watch_table.install wt ~obj_addr:a ~watch_addr:(a + 0x40)
             ~entry:(entry_for ct (k + 1))))
      objs;
    Alcotest.(check int) "one fd per thread and watchpoint" 160
      (Hw_breakpoint.live_fd_count (Machine.hw machine));
    List.iter
      (fun tid ->
        Threads.set_current threads tid;
        Array.iter
          (fun a ->
            hit := -1;
            ignore (Machine.load_word machine (a + 0x40));
            Alcotest.(check int) "trap on the accessing thread" tid !hit_tid;
            match Watch_table.find_by_fd wt !hit with
            | Some wp ->
              Alcotest.(check int) (Printf.sprintf "round %d: fd maps to its object" round)
                a wp.Watch_table.obj_addr;
              Alcotest.(check bool) "fd is the thread's own" true
                (List.mem (tid, !hit) wp.Watch_table.fds)
            | None -> Alcotest.fail (Printf.sprintf "fd %d unknown" !hit))
          objs)
      (Threads.alive threads);
    Threads.set_current threads 0;
    Array.iter (fun a -> ignore (Watch_table.on_free wt ~obj_addr:a)) objs;
    Alcotest.(check int) "all closed" 0 (Hw_breakpoint.live_fd_count (Machine.hw machine))
  done

(* A thread's exit disables and closes its own descriptor of every
   watchpoint, two syscalls each, and no other thread's. *)
let test_wt_exit_closes_own () =
  let wt, ct, machine = mk_wt () in
  let threads = Machine.threads machine in
  let tids = List.init 4 (fun i -> Threads.spawn threads ~name:(Printf.sprintf "w%d" i)) in
  List.iteri
    (fun k a ->
      ignore
        (Watch_table.install wt ~obj_addr:a ~watch_addr:(a + 0x40) ~entry:(entry_for ct (k + 1))))
    [ 0x1000; 0x2000; 0x3000 ];
  let before = Watch_table.live wt in
  let leaving = List.nth tids 2 in
  let syscalls = Machine.syscall_count machine in
  Threads.exit_thread threads leaving;
  Alcotest.(check int) "two syscalls per closed descriptor" (syscalls + 6)
    (Machine.syscall_count machine);
  Alcotest.(check int) "three descriptors fewer" (15 - 3)
    (Hw_breakpoint.live_fd_count (Machine.hw machine));
  List.iter2
    (fun (b : Watch_table.wp) (a : Watch_table.wp) ->
      Alcotest.(check (list (pair int int))) "the others' descriptors kept"
        (List.filter (fun (tid, _) -> tid <> leaving) b.Watch_table.fds)
        a.Watch_table.fds;
      let fd = List.assoc leaving b.Watch_table.fds in
      Alcotest.check_raises "the leaver's descriptor is closed"
        (Invalid_argument (Printf.sprintf "Hw_breakpoint: bad fd %d" fd))
        (fun () -> Hw_breakpoint.close (Machine.hw machine) fd))
    before (Watch_table.live wt)

(* ---------- Canary ---------- *)

let test_canary_layout () =
  Alcotest.(check int) "rounding" 40 (Canary.rounded 33);
  Alcotest.(check int) "rounding exact" 32 (Canary.rounded 32);
  Alcotest.(check int) "padded with evidence" (32 + 40 + 8)
    (Canary.padded_request ~evidence:true 33);
  Alcotest.(check int) "padded without evidence" (40 + 8)
    (Canary.padded_request ~evidence:false 33);
  Alcotest.(check int) "app ptr offset" 132 (Canary.app_ptr ~evidence:true ~base:100);
  Alcotest.(check int) "app ptr without header" 100
    (Canary.app_ptr ~evidence:false ~base:100);
  Alcotest.(check int) "base ptr inverse" 100 (Canary.base_ptr ~evidence:true ~app:132);
  Alcotest.(check int) "boundary" (132 + 40) (Canary.boundary_addr ~app:132 ~size:33)

let test_canary_plant_check () =
  let m = Machine.create () in
  let base = Machine.sbrk m 128 in
  let c = Canary.create m 0xDEADBEEFL in
  let app = Canary.plant c ~base ~size:24 ~ctx_id:77 in
  Alcotest.(check int) "app past header" (base + Canary.header_size) app;
  Alcotest.(check (option (triple int int int))) "header readable"
    (Some (base, 24, 77))
    (read_header c ~app);
  Alcotest.(check bool) "intact" true (Canary.check c);
  (* corrupt one canary byte *)
  Sparse_mem.write_u8 (Machine.mem m) (Canary.boundary_addr ~app ~size:24) 0x00;
  Alcotest.(check bool) "header still ours" true (Canary.read_header c ~app);
  Alcotest.(check bool) "corruption detected" false (Canary.check c);
  Alcotest.(check int) "checks counted" 2 (Canary.checks m)

let test_canary_foreign_header () =
  let m = Machine.create () in
  let base = Machine.sbrk m 128 in
  let c = Canary.create m 0xDEADBEEFL in
  Alcotest.(check (option (triple int int int))) "no identifier: not ours" None
    (read_header c ~app:(base + 32));
  Alcotest.(check (option (triple int int int))) "negative base" None
    (read_header c ~app:8);
  Alcotest.(check int) "reading counts no check" 0 (Canary.checks m)

(* An object whose header or canary straddles a 64 KiB chunk boundary is
   planted, verified and reported as one inside a chunk is.  Large blocks
   are carved straight from the break, which starts on a chunk boundary,
   so a filler block puts the object's base [gap] bytes below the next
   boundary: 16 splits the header, 48 puts the canary in the next chunk,
   8,192 keeps the whole object in one chunk.  Each case corrupts the
   object's canary and frees it (one report at [free]), reallocates the
   block and corrupts it again (one report at exit, where the filler is
   checked too), and in a second runtime smashes the identifier, which
   makes [free] hand the pointer to the heap as a foreign one. *)
let test_canary_straddle () =
  let cs = Sparse_mem.chunk_size and size = 5000 in
  let outcome gap =
    let mk () =
      let m = Machine.create () in
      let heap = Heap.create m in
      let rt = Runtime.create ~machine:m ~heap () in
      let tool = Runtime.tool rt in
      ignore (tool.Tool.malloc ~size:(cs - gap - 40) ~ctx:(ctx 1));
      let app = tool.Tool.malloc ~size ~ctx:(ctx 2) in
      Alcotest.(check int) (Printf.sprintf "gap %d: placed" gap) (cs - gap)
        ((app - Canary.header_size) mod cs);
      (rt, tool, m, app)
    in
    let rt, tool, m, app = mk () in
    let boundary = Canary.boundary_addr ~app ~size in
    Machine.store_word_unwatched m boundary 0x4141_4141;
    tool.Tool.free ~ptr:app;
    let again = tool.Tool.malloc ~size ~ctx:(ctx 2) in
    Alcotest.(check int) "block reused" app again;
    Machine.store_word_unwatched m boundary 0x4242_4242;
    Runtime.finish rt;
    let reports =
      List.map
        (fun r ->
          ( r.Report.source = Report.Canary_free,
            r.Report.object_addr - app,
            r.Report.watch_addr - boundary,
            r.Report.ctx_key ))
        (Runtime.detections rt)
    in
    let checks = (Runtime.stats rt).Runtime.canary_checks in
    let rt, tool, m, app = mk () in
    Machine.store_word_unwatched m (app - 8) 0;
    let foreign =
      match tool.Tool.free ~ptr:app with
      | () -> "freed"
      | exception Heap.Error _ -> "heap error"
    in
    (reports, checks, foreign, (Runtime.stats rt).Runtime.canary_checks)
  in
  let in_chunk = outcome 8192 in
  let reports, checks, foreign, smashed_checks = in_chunk in
  Alcotest.(check int) "in chunk: two reports" 2 (List.length reports);
  Alcotest.(check (list (triple bool int int))) "in chunk: at free, then at exit"
    [ (true, 0, 0); (false, 0, 0) ]
    (List.map (fun (f, o, w, _) -> (f, o, w)) reports);
  Alcotest.(check int) "in chunk: checks (free, filler, object)" 3 checks;
  Alcotest.(check string) "in chunk: smashed identifier" "heap error" foreign;
  Alcotest.(check int) "in chunk: smashed identifier checks nothing" 0 smashed_checks;
  List.iter
    (fun gap ->
      Alcotest.(check bool)
        (Printf.sprintf "gap %d: as in a chunk" gap)
        true
        (outcome gap = in_chunk))
    [ 16; 48 ]

(* ---------- Persist ---------- *)

let test_persist_roundtrip () =
  let s = Persist.create () in
  Persist.add s (1, 2);
  Persist.add s (3, 4);
  Persist.add s (1, 2);
  Alcotest.(check int) "idempotent add" 2 (Persist.count s);
  Alcotest.(check bool) "mem" true (Persist.mem s (1, 2));
  Alcotest.(check bool) "not mem" false (Persist.mem s (9, 9));
  let file = Filename.temp_file "csod_store" ".txt" in
  Persist.save s file;
  let s2 = Persist.load file in
  Alcotest.(check int) "loaded count" 2 (Persist.count s2);
  Alcotest.(check bool) "loaded keys" true
    (Persist.keys s2 = [ (1, 2); (3, 4) ]);
  Sys.remove file;
  let s3 = Persist.load file in
  Alcotest.(check int) "missing file: empty store" 0 (Persist.count s3)

let test_persist_merge () =
  let a = Persist.create () and b = Persist.create () in
  Persist.add a (1, 2);
  Persist.add a (3, 4);
  Persist.add b (3, 4);
  Persist.add b (5, 6);
  let ab = Persist.copy a and ba = Persist.copy b in
  Persist.merge ab b;
  Persist.merge ba a;
  Alcotest.(check bool) "commutative key set" true
    (Persist.keys ab = Persist.keys ba);
  Alcotest.(check bool) "union" true
    (Persist.keys ab = [ (1, 2); (3, 4); (5, 6) ]);
  Alcotest.(check int) "src untouched" 2 (Persist.count b);
  Alcotest.(check int) "copy is independent" 2 (Persist.count a);
  (* save / load / merge round-trip: merging a loaded store equals merging
     the original. *)
  let file = Filename.temp_file "csod_store" ".txt" in
  Persist.save b file;
  let fresh = Persist.copy a in
  Persist.merge fresh (Persist.load file);
  Alcotest.(check bool) "save/load/merge round-trip" true
    (Persist.keys fresh = Persist.keys ab);
  Sys.remove file

let test_persist_load_tolerant () =
  let file = Filename.temp_file "csod_store" ".txt" in
  let oc = open_out file in
  output_string oc "1 2  \n\n  3\t4\n5  6\n   \n";
  close_out oc;
  (* Whitespace within a line is tolerated; the empty and the blank line
     hold no key, and a footer-less store is never clean (a tear on a line
     boundary looks the same): every key is salvaged, the load recovered. *)
  (match Persist.load_result file with
  | s, Persist.Recovered { entries = 3; corrupt_lines = 2 } ->
    Alcotest.(check bool) "whitespace tolerated" true
      (Persist.keys s = [ (1, 2); (3, 4); (5, 6) ])
  | _, _ -> Alcotest.fail "footer-less store should load recovered");
  (* Malformed lines are skipped, not fatal: the parsable contexts are
     salvaged and the load reports recovery. *)
  let oc = open_out file in
  output_string oc "1 2\n1 2 3\n";
  close_out oc;
  (match Persist.load_result file with
  | s, Persist.Recovered { entries = 1; corrupt_lines = 1 } ->
    Alcotest.(check bool) "good line salvaged" true (Persist.mem s (1, 2))
  | _, _ -> Alcotest.fail "three-field line should be recovered around");
  let oc = open_out file in
  output_string oc "1 x\n";
  close_out oc;
  (match Persist.load_result file with
  | _, Persist.Recovered { entries = 0; corrupt_lines = 1 } -> ()
  | _, _ -> Alcotest.fail "non-integer line should count as corrupt");
  Sys.remove file;
  match Persist.load_result file with
  | _, Persist.Missing -> ()
  | _, _ -> Alcotest.fail "missing file must be distinguished from empty"

let test_persist_torn_tail () =
  let file = Filename.temp_file "csod_store" ".txt" in
  (* A torn write: the process died mid-line, so the tail has no
     terminating newline.  "30 4" parses as a well-formed entry, but the
     writer was emitting "30 45" — salvaging the fragment would fabricate
     evidence for key (30, 4), a context that never overflowed. *)
  let oc = open_out_bin file in
  output_string oc "10 2\n30 4";
  close_out oc;
  let reg = Metrics.create () in
  (match Persist.load_result ~metrics:reg file with
  | s, Persist.Recovered { entries = 1; corrupt_lines = 1 } ->
    Alcotest.(check bool) "intact line salvaged" true (Persist.mem s (10, 2));
    Alcotest.(check bool) "fabricated key rejected" true
      (not (Persist.mem s (30, 4)))
  | _, _ -> Alcotest.fail "unterminated tail must count as corrupt");
  Alcotest.(check bool) "tear counted under persist.corrupt_lines" true
    (List.assoc_opt "persist.corrupt_lines" (Metrics.counters_list reg)
     = Some 1);
  (* The same bytes with the terminator load both keys: recovered, with no
     corrupt line, since a footer-less file may be a tear on a line
     boundary. *)
  let oc = open_out_bin file in
  output_string oc "10 2\n30 4\n";
  close_out oc;
  (match Persist.load_result file with
  | s, Persist.Recovered { entries = 2; corrupt_lines = 0 } ->
    Alcotest.(check bool) "terminated line loads" true (Persist.mem s (30, 4))
  | _, _ -> Alcotest.fail "terminated footer-less store should load recovered");
  (* A torn footer is recovery, not corruption of the data lines. *)
  let s = Persist.create () in
  Persist.add s (7, 8);
  Persist.save s file;
  let full = In_channel.with_open_bin file In_channel.input_all in
  let oc = open_out_bin file in
  output_string oc (String.sub full 0 (String.length full - 3));
  close_out oc;
  (match Persist.load_result file with
  | s2, Persist.Recovered { entries = 1; corrupt_lines = 1 } ->
    Alcotest.(check bool) "entries survive a torn footer" true
      (Persist.mem s2 (7, 8))
  | _, _ -> Alcotest.fail "torn footer should recover the data lines");
  Sys.remove file

let test_persist_hits () =
  let a = Persist.create () in
  Persist.add a (1, 2);
  Persist.add a (1, 2);
  Persist.add a (1, 2);
  Persist.add a (3, 4);
  Alcotest.(check int) "hits accumulate" 3 (Persist.hits a (1, 2));
  Alcotest.(check int) "single hit" 1 (Persist.hits a (3, 4));
  Alcotest.(check int) "absent key" 0 (Persist.hits a (9, 9));
  Alcotest.(check int) "count is distinct keys" 2 (Persist.count a);
  let b = Persist.create () in
  Persist.add b (1, 2);
  Persist.add b (5, 6);
  let m = Persist.copy a in
  Persist.merge m b;
  Alcotest.(check int) "merge sums hits" 4 (Persist.hits m (1, 2));
  Alcotest.(check int) "merge keeps src hits" 1 (Persist.hits m (5, 6));
  (* merge_delta folds in only what [src] learned since [base]: the
     fleet's epoch barrier must not re-count the snapshot the execution
     started from. *)
  let shared = Persist.create () in
  Persist.add shared (1, 2);
  Persist.add shared (1, 2);
  let base = Persist.copy shared in
  let local = Persist.copy shared in
  Persist.add local (1, 2);
  Persist.add local (7, 8);
  Persist.merge_delta shared ~base local;
  Alcotest.(check int) "delta adds only new evidence" 3
    (Persist.hits shared (1, 2));
  Alcotest.(check int) "delta carries new keys" 1 (Persist.hits shared (7, 8));
  (* A second identical barrier from an unchanged local adds nothing. *)
  let base2 = Persist.copy shared in
  Persist.merge_delta shared ~base:base2 (Persist.copy shared);
  Alcotest.(check int) "idempotent on unchanged local" 3
    (Persist.hits shared (1, 2))

(* ---------- Report ---------- *)

let test_report_format () =
  let r =
    { Report.kind = Report.Over_read;
      source = Report.Watchpoint;
      access_backtrace = [ 10; 20 ];
      alloc_backtrace = [ 30 ];
      ctx_key = (30, 0);
      object_addr = 0x100;
      watch_addr = 0x140;
      tid = 0;
      at_sec = 1.0 }
  in
  let symbolize = function
    | 10 -> "lib.c:5 (read_chunk)"
    | 20 -> "main.c:2 (main)"
    | 30 -> "lib.c:1 (alloc_chunk)"
    | _ -> "?"
  in
  let s = Report.format ~symbolize r in
  let contains needle =
    let nl = String.length needle and hl = String.length s in
    let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions over-read" true
    (contains "A buffer over-read problem is detected at:");
  Alcotest.(check bool) "access frames" true (contains "  lib.c:5 (read_chunk)");
  Alcotest.(check bool) "allocation section" true
    (contains "This object is allocated at:");
  Alcotest.(check bool) "alloc frames" true (contains "  lib.c:1 (alloc_chunk)");
  Alcotest.(check string) "kind name" "over-read" (Report.kind_name r.Report.kind);
  let canary_report = { r with Report.source = Report.Canary_exit; access_backtrace = [] } in
  let s2 = Report.format ~symbolize canary_report in
  Alcotest.(check bool) "canary wording" true
    (String.length s2 > 0
    && String.sub s2 0 46 = "A buffer over-write problem is evidenced by a ")

let suite =
  [ Alcotest.test_case "ct: initial probability" `Quick test_ct_initial_prob;
    Alcotest.test_case "ct: key identity" `Quick test_ct_key_identity;
    Alcotest.test_case "ct: dense ids" `Quick test_ct_ids_dense;
    Alcotest.test_case "ct: degradation" `Quick test_ct_degradation_accumulates;
    Alcotest.test_case "ct: watch halving + floor" `Quick test_ct_watch_halving_and_floor;
    Alcotest.test_case "ct: burst throttle" `Quick test_ct_burst_throttle;
    Alcotest.test_case "ct: no burst when slow" `Quick test_ct_no_burst_when_slow;
    Alcotest.test_case "ct: pin" `Quick test_ct_pin;
    Alcotest.test_case "ct: reviving" `Slow test_ct_revive;
    Alcotest.test_case "ct: memo vs model, 700 keys over 256 slots" `Quick
      test_ct_memo_model;
    Alcotest.test_case "ct: find_by_id bounds" `Quick test_ct_find_by_id_bounds;
    QCheck_alcotest.to_alcotest prop_ct_prob_bounds;
    Alcotest.test_case "wt: install and free" `Quick test_wt_install_and_free;
    Alcotest.test_case "wt: startup ends when full" `Quick test_wt_startup_ends_when_full;
    Alcotest.test_case "wt: install on full fails" `Quick test_wt_install_full_fails;
    Alcotest.test_case "wt: naive never replaces" `Quick test_wt_naive_never_replaces;
    Alcotest.test_case "wt: near-FIFO oldest victim" `Quick
      test_wt_near_fifo_replaces_oldest_yielding;
    Alcotest.test_case "wt: young victims protected" `Quick test_wt_young_victims_protected;
    Alcotest.test_case "wt: random policy" `Quick test_wt_random_replaces_some_yielding;
    Alcotest.test_case "wt: step decay" `Quick test_wt_decay_steps;
    Alcotest.test_case "wt: thread propagation" `Quick test_wt_thread_propagation;
    Alcotest.test_case "wt: find by fd" `Quick test_wt_find_by_fd;
    Alcotest.test_case "wt: fds past the tables' initial size map back" `Quick
      test_wt_many_fds;
    Alcotest.test_case "wt: thread exit closes exactly its descriptors" `Quick
      test_wt_exit_closes_own;
    Alcotest.test_case "canary: layout" `Quick test_canary_layout;
    Alcotest.test_case "canary: plant/check" `Quick test_canary_plant_check;
    Alcotest.test_case "canary: foreign header" `Quick test_canary_foreign_header;
    Alcotest.test_case "canary: frames straddling a chunk" `Quick test_canary_straddle;
    Alcotest.test_case "persist: roundtrip" `Quick test_persist_roundtrip;
    Alcotest.test_case "persist: merge" `Quick test_persist_merge;
    Alcotest.test_case "persist: tolerant load" `Quick test_persist_load_tolerant;
    Alcotest.test_case "persist: torn tail rejected" `Quick
      test_persist_torn_tail;
    Alcotest.test_case "persist: hit counts and merge_delta" `Quick
      test_persist_hits;
    Alcotest.test_case "report: formatting" `Quick test_report_format ]

(* Combined-syscall extension (paper, Section V-B): same hardware
   behaviour, 2 kernel crossings per install+remove instead of 8. *)
let test_combined_syscall_cost () =
  let count combined_syscall =
    let params = { Params.default with Params.combined_syscall } in
    let machine = Machine.create ~seed:4 () in
    let rng = Prng.create ~seed:2 in
    let wt = Watch_table.create ~params ~machine ~rng in
    let ct = Context_table.create ~params ~machine ~rng:(Prng.create ~seed:3) in
    let e = Context_table.on_allocation ct (ctx 1) in
    ignore (Watch_table.install wt ~obj_addr:0x100 ~watch_addr:0x140 ~entry:e);
    ignore (Watch_table.on_free wt ~obj_addr:0x100);
    Machine.syscall_count machine
  in
  Alcotest.(check int) "standard path: 8 syscalls" 8 (count false);
  Alcotest.(check int) "combined path: 2 syscalls" 2 (count true)

let test_combined_syscall_same_detection () =
  let params = { Params.default with Params.combined_syscall = true } in
  let machine = Machine.create ~seed:4 () in
  let heap = Heap.create machine in
  let rt = Runtime.create ~params ~machine ~heap () in
  let tool = Runtime.tool rt in
  let p = tool.Tool.malloc ~size:16 ~ctx:(ctx 1) in
  ignore (Machine.load_word machine (p + 16));
  Alcotest.(check bool) "detection unchanged" true (Runtime.detected rt)

let suite =
  suite
  @ [ Alcotest.test_case "combined syscall: cost" `Quick test_combined_syscall_cost;
      Alcotest.test_case "combined syscall: detection" `Quick
        test_combined_syscall_same_detection ]

(* Property: under arbitrary install/free/replace sequences the watchpoint
   table never exceeds the four hardware slots and never leaks an event
   descriptor. *)
let prop_wt_invariants =
  QCheck.Test.make ~name:"watch table: <=4 slots, no fd leaks" ~count:100
    QCheck.(list (pair (int_range 0 2) (int_range 1 12)))
    (fun ops ->
      let wt, ct, machine = mk_wt () in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 ->
            if Watch_table.has_free_slot wt then
              ignore
                (Watch_table.install wt ~obj_addr:(k * 0x100)
                   ~watch_addr:((k * 0x100) + 0x40) ~entry:(entry_for ct k))
          | 1 -> ignore (Watch_table.on_free wt ~obj_addr:(k * 0x100))
          | _ ->
            Machine.work machine (sec 11);
            ignore
              (Watch_table.try_replace wt ~obj_addr:(k * 0x100 + 8)
                 ~watch_addr:((k * 0x100) + 0x48) ~entry:(entry_for ct (k + 20))
                 ~new_prob:0.49))
        ops;
      let live = Watch_table.live wt in
      List.length live <= 4
      && Hw_breakpoint.live_fd_count (Machine.hw machine)
         = List.fold_left (fun acc wp -> acc + List.length wp.Watch_table.fds) 0 live
      && List.length (Hw_breakpoint.watched_addrs (Machine.hw machine))
         <= Hw_breakpoint.num_slots)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_wt_invariants ]
