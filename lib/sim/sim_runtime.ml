(* Alphabet over the assembled CSOD runtime.  The machine carries a
   zero-rate injector purely as a vehicle for [Fault_injector.force]: a
   fault op schedules a single-shot at an exact step, so interleavings like
   "drop the trap of the very next overflow" are explored systematically
   instead of by rate.  A zero plan with no pending shot draws nothing, so
   an op sequence without fault ops is bit-identical to an unfaulted run. *)

type obj = { ptr : int; size : int }

type state = {
  machine : Machine.t;
  heap : Heap.t;
  rt : Runtime.t;
  tool : Tool.t;
  inj : Fault_injector.t;
  ctx : Alloc_ctx.t; (* re-pointed before each malloc *)
  mutable live : obj list; (* allocation order, oldest first *)
  mutable last_detections : int;
}

let nth_obj st idx = List.nth st.live (idx mod List.length st.live)

let force point =
  (fun st (_ : int list) ->
    Fault_injector.force st.inj point;
    Ok ())

let fault_op name point =
  { Sim.op_name = name;
    weight = 1;
    pre = (fun (_ : state) -> true);
    gen = (fun _ _ -> []);
    apply = force point }

let ops : state Sim.op list =
  [ { Sim.op_name = "alloc";
      weight = 6;
      pre = (fun _ -> true);
      gen =
        (fun _ g -> [ 8 + Prng.int g 128; Prng.int g 16; Prng.int g 4 ]);
      apply =
        (fun st args ->
          let size, callsite, soff =
            match args with
            | s :: c :: o :: _ -> (max 1 s, c mod 16, o mod 4)
            | _ -> (8, 0, 0)
          in
          Alloc_ctx.point st.ctx ~callsite ~stack_offset:soff;
          let p = st.tool.Tool.malloc ~size ~ctx:st.ctx in
          st.live <- st.live @ [ { ptr = p; size } ];
          Ok ()) };
    { Sim.op_name = "free";
      weight = 4;
      pre = (fun st -> st.live <> []);
      gen = (fun st g -> [ Prng.int g (max 1 (List.length st.live)) ]);
      apply =
        (fun st args ->
          let idx = match args with i :: _ -> i | [] -> 0 in
          let o = nth_obj st idx in
          st.live <- List.filter (fun o' -> o'.ptr <> o.ptr) st.live;
          st.tool.Tool.free ~ptr:o.ptr;
          Ok ()) };
    { Sim.op_name = "write";
      weight = 3;
      pre = (fun st -> st.live <> []);
      gen =
        (fun st g ->
          [ Prng.int g (max 1 (List.length st.live)); Prng.int g 128;
            Prng.int g 64 ]);
      apply =
        (fun st args ->
          (* In-bounds store through the checked machine path: never a
             detection, but it exercises the armed debug registers. *)
          let idx, off, pc =
            match args with
            | i :: o :: p :: _ -> (i, o, p)
            | _ -> (0, 0, 0)
          in
          let o = nth_obj st idx in
          Machine.set_pc st.machine (0x400 + (pc mod 64));
          Machine.store_byte st.machine (o.ptr + (off mod o.size)) 0x41;
          Ok ()) };
    { Sim.op_name = "read";
      weight = 2;
      pre = (fun st -> st.live <> []);
      gen =
        (fun st g ->
          [ Prng.int g (max 1 (List.length st.live)); Prng.int g 128;
            Prng.int g 64 ]);
      apply =
        (fun st args ->
          let idx, off, pc =
            match args with
            | i :: o :: p :: _ -> (i, o, p)
            | _ -> (0, 0, 0)
          in
          let o = nth_obj st idx in
          Machine.set_pc st.machine (0x400 + (pc mod 64));
          ignore (Machine.load_byte st.machine (o.ptr + (off mod o.size)));
          Ok ()) };
    { Sim.op_name = "overflow";
      weight = 2;
      pre = (fun st -> st.live <> []);
      gen =
        (fun st g ->
          [ Prng.int g (max 1 (List.length st.live)); Prng.int g 64 ]);
      apply =
        (fun st args ->
          (* One past the end: trips the boundary watchpoint if this object
             is watched (a trap-drop single-shot suppresses exactly that),
             or corrupts the canary for the free-time check.  Detections
             may only ever grow — checked as an invariant. *)
          let idx, pc =
            match args with i :: p :: _ -> (i, p) | _ -> (0, 0)
          in
          let o = nth_obj st idx in
          Machine.set_pc st.machine (0x800 + (pc mod 64));
          Machine.store_byte st.machine (o.ptr + o.size) 0x42;
          Ok ()) };
    { Sim.op_name = "disarm";
      weight = 1;
      pre =
        (fun st -> Watch_table.live (Runtime.watch_table st.rt) <> []);
      gen =
        (fun st g ->
          [ Prng.int g
              (max 1
                 (List.length (Watch_table.live (Runtime.watch_table st.rt))))
          ]);
      apply =
        (fun st args ->
          (* Policy-external removal — a debugger stealing the slot.  The
             table and the hardware must stay in agreement. *)
          let idx = match args with i :: _ -> i | [] -> 0 in
          let wt = Runtime.watch_table st.rt in
          let wps = Watch_table.live wt in
          let wp = List.nth wps (idx mod List.length wps) in
          Watch_table.remove wt wp;
          Ok ()) };
    fault_op "fault-ebusy" Fault_plan.Perf_ebusy;
    fault_op "fault-eacces" Fault_plan.Perf_eacces;
    fault_op "fault-trap-drop" Fault_plan.Trap_drop;
    fault_op "fault-trap-delay" Fault_plan.Trap_delay ]

let check st =
  let armed = Hw_breakpoint.armed_count (Machine.hw st.machine) in
  let entries = List.length (Watch_table.live (Runtime.watch_table st.rt)) in
  let detections = List.length (Runtime.detections st.rt) in
  if armed > 4 then Some (Printf.sprintf "%d armed watchpoints" armed)
  else if entries <> armed then
    Some
      (Printf.sprintf "watch table holds %d, hardware arms %d" entries armed)
  else if Heap.live_objects st.heap <> List.length st.live then
    Some
      (Printf.sprintf "heap live count %d, model %d"
         (Heap.live_objects st.heap) (List.length st.live))
  else if detections < st.last_detections then
    Some
      (Printf.sprintf "detections went backwards: %d after %d" detections
         st.last_detections)
  else begin
    st.last_detections <- detections;
    None
  end

let digest st =
  let s = Runtime.stats st.rt in
  Sim.digest_ints
    [ s.Runtime.contexts; s.Runtime.allocations; s.Runtime.watched_times;
      s.Runtime.traps; s.Runtime.canary_checks; s.Runtime.live_objects;
      Hw_breakpoint.armed_count (Machine.hw st.machine);
      List.length (Runtime.detections st.rt);
      (if Runtime.degraded st.rt then 1 else 0) ]

let packed name ops check digest =
  Sim.Packed
    { Sim.name;
      ops;
      init =
        (fun ~seed ->
          let inj = Fault_injector.create ~plan:Fault_plan.zero ~salt:seed in
          let machine = Machine.create ~seed ~faults:inj () in
          let heap = Heap.create machine in
          let rt = Runtime.create ~seed ~machine ~heap () in
          { machine;
            heap;
            rt;
            tool = Runtime.tool rt;
            inj;
            ctx = Alloc_ctx.synthetic ~callsite:0 ();
            live = [];
            last_detections = 0 });
      check;
      digest;
      teardown =
        (fun st ->
          Runtime.finish st.rt;
          Sparse_mem.release (Machine.mem st.machine)) }

let alphabet () = packed "runtime" ops check digest

(* ---------- runtime-threads ---------- *)

let max_threads = 8

let thread_ops : state Sim.op list =
  [ { Sim.op_name = "spawn";
      weight = 1;
      pre = (fun st -> Threads.alive_count (Machine.threads st.machine) < max_threads);
      gen = (fun _ _ -> []);
      apply =
        (fun st _ ->
          ignore (Threads.spawn (Machine.threads st.machine) ~name:"worker");
          Ok ()) };
    { Sim.op_name = "exit-thread";
      weight = 1;
      pre = (fun st -> Threads.alive_count (Machine.threads st.machine) > 1);
      gen = (fun _ g -> [ Prng.int g max_threads ]);
      apply =
        (fun st args ->
          (* Any alive thread but main, by index among them. *)
          let threads = Machine.threads st.machine in
          let workers = List.tl (Threads.alive threads) in
          let idx = match args with i :: _ -> i | [] -> 0 in
          Threads.exit_thread threads (List.nth workers (idx mod List.length workers));
          Ok ()) } ]

(* Every live watchpoint is armed on every alive thread, once each,
   except where an open failed: ENOSPC cannot happen while the table
   alone owns the debug registers, so only an injected EBUSY or EACCES
   excuses a missing descriptor, and each fired fault excuses at most
   one.  Every descriptor names its watchpoint, and the hardware's
   armed and open counts are the descriptors' count. *)
let check_threads st =
  let wt = Runtime.watch_table st.rt and hw = Machine.hw st.machine in
  let alive = Threads.alive (Machine.threads st.machine) in
  let live = Watch_table.live wt in
  let fds = List.concat_map (fun (wp : Watch_table.wp) -> wp.Watch_table.fds) live in
  let missing = (List.length alive * List.length live) - List.length fds in
  let excused =
    Fault_injector.count st.inj Fault_plan.Perf_ebusy
    + Fault_injector.count st.inj Fault_plan.Perf_eacces
  in
  let stray =
    List.find_opt
      (fun (wp : Watch_table.wp) ->
        let tids = List.map fst wp.Watch_table.fds in
        List.length (List.sort_uniq compare tids) <> List.length tids
        || List.exists (fun tid -> not (List.mem tid alive)) tids
        || List.exists
             (fun (_, fd) ->
               match Watch_table.find_by_fd wt fd with
               | Some w -> w.Watch_table.serial <> wp.Watch_table.serial
               | None -> true)
             wp.Watch_table.fds)
      live
  in
  match stray with
  | Some wp ->
    Some
      (Printf.sprintf "watchpoint on 0x%x: descriptors not one per alive thread, or not its own"
         wp.Watch_table.obj_addr)
  | None ->
    if missing > excused then
      Some
        (Printf.sprintf "%d (watchpoint, thread) pairs unarmed, %d perf faults fired"
           missing excused)
    else if Hw_breakpoint.armed_count hw <> List.length fds then
      Some
        (Printf.sprintf "hardware arms %d, watch table holds %d descriptors"
           (Hw_breakpoint.armed_count hw) (List.length fds))
    else if Hw_breakpoint.live_fd_count hw <> List.length fds then
      Some
        (Printf.sprintf "%d events open, watch table holds %d descriptors"
           (Hw_breakpoint.live_fd_count hw) (List.length fds))
    else if List.length (Hw_breakpoint.watched_addrs hw) > Hw_breakpoint.num_slots then
      Some "more watched addresses than debug registers"
    else if Heap.live_objects st.heap <> List.length st.live then
      Some
        (Printf.sprintf "heap live count %d, model %d" (Heap.live_objects st.heap)
           (List.length st.live))
    else begin
      let detections = List.length (Runtime.detections st.rt) in
      if detections < st.last_detections then
        Some
          (Printf.sprintf "detections went backwards: %d after %d" detections
             st.last_detections)
      else begin
        st.last_detections <- detections;
        None
      end
    end

let digest_threads st =
  Int64.add (Int64.mul (digest st) 31L)
    (Int64.of_int (Threads.alive_count (Machine.threads st.machine)))

let threads_alphabet () =
  packed "runtime-threads" (ops @ thread_ops) check_threads digest_threads
