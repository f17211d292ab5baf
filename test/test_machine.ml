(* Tests for the machine substrate: sparse memory, clock, threads, debug
   registers, perf-event surface, and trap delivery. *)

(* ---------- Sparse memory ---------- *)

let test_mem_bytes () =
  let m = Sparse_mem.create () in
  Alcotest.(check int) "untouched reads zero" 0 (Sparse_mem.read_u8 m 123456);
  Sparse_mem.write_u8 m 42 0x1FF;
  Alcotest.(check int) "low 8 bits stored" 0xFF (Sparse_mem.read_u8 m 42)

let test_mem_words () =
  let m = Sparse_mem.create () in
  Sparse_mem.write_u64 m 0x1000 0x1122334455667788L;
  Alcotest.(check int64) "roundtrip" 0x1122334455667788L (Sparse_mem.read_u64 m 0x1000);
  Alcotest.(check int) "little-endian byte" 0x88 (Sparse_mem.read_u8 m 0x1000);
  Alcotest.(check int) "high byte" 0x11 (Sparse_mem.read_u8 m 0x1007)

let test_mem_cross_chunk () =
  let m = Sparse_mem.create () in
  let addr = Sparse_mem.chunk_size - 3 in
  Sparse_mem.write_u64 m addr 0x0123456789ABCDEFL;
  Alcotest.(check int64) "straddling chunk boundary" 0x0123456789ABCDEFL
    (Sparse_mem.read_u64 m addr)

let test_mem_fill_and_int () =
  let m = Sparse_mem.create () in
  Sparse_mem.fill m 100 16 0xAB;
  Alcotest.(check int) "filled" 0xAB (Sparse_mem.read_u8 m 115);
  Alcotest.(check int) "outside fill" 0 (Sparse_mem.read_u8 m 116);
  Sparse_mem.write_int m 200 (-12345);
  Alcotest.(check int) "negative int roundtrip" (-12345) (Sparse_mem.read_int m 200)

let test_mem_negative_addr () =
  let m = Sparse_mem.create () in
  Alcotest.check_raises "negative address"
    (Invalid_argument "Sparse_mem: negative address") (fun () ->
      ignore (Sparse_mem.read_u8 m (-1)))

let prop_mem_roundtrip =
  QCheck.Test.make ~name:"sparse memory word roundtrip" ~count:300
    QCheck.(pair (int_range 0 1_000_000) int64)
    (fun (addr, v) ->
      let m = Sparse_mem.create () in
      Sparse_mem.write_u64 m addr v;
      Sparse_mem.read_u64 m addr = v)

(* Recycled pages are zeroed over the extent their last owner wrote, so
   every write path must record what it wrote.  Each path writes random
   non-zero bytes into chunks of its own (the split words and the fills
   also across a chunk boundary); the machine is released, and a new one
   on this domain takes the pooled pages back, one per chunk written,
   and must read zero wherever the first one wrote: on every byte of
   every page it took. *)
let test_mem_recycled_reads_zero () =
  let cs = Sparse_mem.chunk_size in
  let g = Prng.create ~seed:24 in
  let m = Machine.create () in
  let mem = Machine.mem m in
  let written = Hashtbl.create 4096 in
  let mark a n = for i = 0 to n - 1 do Hashtbl.replace written (a + i) () done in
  let nonzero () = 1 + Prng.int g 255 in
  let word () = Int64.logor 0x0101010101010101L (Prng.bits64 g) in
  let chunk k = (0x1000_0000 / cs + (2 * k)) * cs in
  let offset () = Prng.int g (cs - 8) in
  for _ = 1 to 200 do
    let a = chunk 0 + offset () in
    Sparse_mem.write_u8 mem a (nonzero ()); mark a 1;
    let a = chunk 1 + offset () in
    Sparse_mem.write_u64 mem a (word ()); mark a 8;
    let a = chunk 2 + offset () in
    Sparse_mem.write_int mem a (Int64.to_int (word ())); mark a 8;
    (* straddling a chunk boundary *)
    let a = chunk 4 - 7 + Prng.int g 7 in
    Sparse_mem.write_u64 mem a (word ()); mark a 8;
    let a = chunk 5 + offset () and n = 1 + Prng.int g 300 in
    let n = min n (chunk 6 - a) in
    Sparse_mem.fill mem a n (nonzero ()); mark a n;
    let a = chunk 6 + offset () in
    ignore (Sparse_mem.exchange_u8 mem a (nonzero ())); mark a 1;
    let a = chunk 7 + offset () in
    ignore (Sparse_mem.exchange_int mem a (Int64.to_int (word ()))); mark a 8;
    let a = chunk 8 - 7 + Prng.int g 7 in
    ignore (Sparse_mem.exchange_int mem a (Int64.to_int (word ()))); mark a 8
  done;
  (* one fill across a chunk boundary *)
  let a = chunk 10 - 100 in
  Sparse_mem.fill mem a 200 0xA5; mark a 200;
  (* object frames: in one chunk (one extent note, their hull), with the
     header across a boundary, and with the tail in the next chunk *)
  let frame a n =
    Sparse_mem.write_frame mem a a n 7 0x43534F44 (word ());
    mark a 32;
    mark (Sparse_mem.frame_tail a n) 8
  in
  for _ = 1 to 50 do
    frame (chunk 11 + (16 * Prng.int g 1000)) (Prng.int g 2000)
  done;
  frame (chunk 13 - 16) 100;
  frame (chunk 15 - 48) 64;
  let chunks = Hashtbl.create 16 and offsets = Hashtbl.create 4096 in
  Hashtbl.iter
    (fun a () ->
      Hashtbl.replace chunks (a / cs) ();
      Hashtbl.replace offsets (a mod cs) ())
    written;
  Sparse_mem.release mem;
  let m2 = Machine.create () in
  let mem2 = Machine.mem m2 in
  (* The pool hands the pages back in another order, so the new machine
     takes one per chunk by writing a zero at an offset no chunk was
     written at, and then reads every byte of them. *)
  let rec unused o = if Hashtbl.mem offsets o then unused (o + 1) else o in
  let spot = unused 0 in
  Hashtbl.iter (fun c () -> Sparse_mem.write_u8 mem2 ((c * cs) + spot) 0) chunks;
  let dirty = ref 0 in
  Hashtbl.iter
    (fun c () ->
      for a = c * cs to ((c + 1) * cs) - 1 do
        if Sparse_mem.read_u8 mem2 a <> 0 then incr dirty
      done)
    chunks;
  Alcotest.(check int) "recycled bytes that read non-zero" 0 !dirty;
  Sparse_mem.release mem2

(* A frame reads back what word-wise accesses would: in one chunk, with
   the header split by a chunk boundary, with the tail in the next chunk,
   and in untouched memory.  Only a frame whose header and tail share a
   written chunk has its tail compared; the others leave that to
   [equal_u64]. *)
let test_mem_frames () =
  let cs = Sparse_mem.chunk_size in
  let v = 0x0123_4567_89AB_CDEFL in
  let case name a n ~compared =
    let mem = Sparse_mem.create () in
    Sparse_mem.write_frame mem a (a + 1) n (-3) 0x43534F44 v;
    let tail = Sparse_mem.frame_tail a n in
    Alcotest.(check (list int)) (name ^ ": header words")
      [ a + 1; n; -3; 0x43534F44 ]
      (List.init 4 (fun i -> Sparse_mem.read_int mem (a + (8 * i))));
    Alcotest.(check int64) (name ^ ": tail") v (Sparse_mem.read_u64 mem tail);
    Alcotest.(check int) (name ^ ": body untouched") 0 (Sparse_mem.read_u8 mem (a + 32));
    let dst = Array.make 4 0 in
    let verdict expected =
      if compared then Bool.to_int (Sparse_mem.equal_u64 mem tail expected)
      else Sparse_mem.tail_unread
    in
    Alcotest.(check int) (name ^ ": intact") (verdict v) (Sparse_mem.read_frame mem a dst v);
    Alcotest.(check (array int)) (name ^ ": read back") [| a + 1; n; -3; 0x43534F44 |] dst;
    Alcotest.(check int) (name ^ ": another canary") (verdict 7L)
      (Sparse_mem.read_frame mem a dst 7L);
    Alcotest.(check bool) (name ^ ": compared") compared
      (Sparse_mem.read_frame mem a dst v <> Sparse_mem.tail_unread)
  in
  case "in one chunk" 0x1000_0000 24 ~compared:true;
  case "up to the chunk's end" (0x1000_0000 + cs - 72) 32 ~compared:true;
  case "header split" (0x1000_0000 + cs - 16) 24 ~compared:false;
  case "tail in the next chunk" (0x1000_0000 + cs - 48) 24 ~compared:false;
  let mem = Sparse_mem.create () in
  let dst = Array.make 4 9 in
  Alcotest.(check int) "untouched: not compared" Sparse_mem.tail_unread
    (Sparse_mem.read_frame mem 0x2000_0000 dst 0L);
  Alcotest.(check (array int)) "untouched: zeros" [| 0; 0; 0; 0 |] dst

(* ---------- Clock ---------- *)

let test_clock () =
  let c = Clock.create () in
  Alcotest.(check int) "starts at 0" 0 (Clock.cycles c);
  Clock.advance c 2_500_000_000;
  Alcotest.check (Alcotest.float 1e-9) "one second" 1.0 (Clock.seconds c);
  Alcotest.check_raises "negative advance"
    (Invalid_argument "Clock.advance: negative cycles") (fun () -> Clock.advance c (-1));
  let region = Clock.Region.start c in
  Clock.advance c 100;
  Alcotest.(check int) "region measures" 100 (Clock.Region.stop region);
  Clock.reset c;
  Alcotest.(check int) "reset" 0 (Clock.cycles c)

(* ---------- Threads ---------- *)

let test_threads () =
  let t = Threads.create () in
  Alcotest.(check (list int)) "main alive" [ 0 ] (Threads.alive t);
  Alcotest.(check string) "main name" "main" (Threads.name t 0);
  let spawned = ref [] in
  Threads.on_spawn t (fun tid -> spawned := tid :: !spawned);
  let a = Threads.spawn t ~name:"worker-a" in
  let b = Threads.spawn t ~name:"worker-b" in
  Alcotest.(check (list int)) "spawn order" [ 0; a; b ] (Threads.alive t);
  Alcotest.(check (list int)) "spawn hooks fired" [ b; a ] !spawned;
  Threads.set_current t a;
  Alcotest.(check int) "current" a (Threads.current t);
  Threads.exit_thread t a;
  Alcotest.(check int) "current falls back to main" 0 (Threads.current t);
  Alcotest.(check (list int)) "a gone" [ 0; b ] (Threads.alive t);
  Alcotest.check_raises "double exit"
    (Invalid_argument (Printf.sprintf "Threads.exit_thread: tid %d already dead" a))
    (fun () -> Threads.exit_thread t a);
  Alcotest.check_raises "main cannot exit"
    (Invalid_argument "Threads.exit_thread: main thread cannot exit") (fun () ->
      Threads.exit_thread t 0)

(* ---------- Hw_breakpoint ---------- *)

let test_hw_slots () =
  let hw = Hw_breakpoint.create () in
  let fds =
    List.map
      (fun i ->
        match Hw_breakpoint.perf_event_open hw ~addr:(0x1000 * i) ~tid:0 with
        | Ok fd -> fd
        | Error _ -> Alcotest.fail "unexpected open failure")
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check int) "four armed addrs" 4 (List.length (Hw_breakpoint.watched_addrs hw));
  (match Hw_breakpoint.perf_event_open hw ~addr:0x9000 ~tid:0 with
  | Error `ENOSPC -> ()
  | Error _ -> Alcotest.fail "fifth address must fail with ENOSPC"
  | Ok _ -> Alcotest.fail "fifth distinct address must fail");
  (* Same address for another thread does NOT consume a new slot. *)
  (match Hw_breakpoint.perf_event_open hw ~addr:0x1000 ~tid:1 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "same-address event should fit");
  List.iter (Hw_breakpoint.close hw) fds;
  Alcotest.(check int) "one addr left (tid 1's)" 1
    (List.length (Hw_breakpoint.watched_addrs hw))

let test_hw_trigger_semantics () =
  let hw = Hw_breakpoint.create () in
  let fd =
    match Hw_breakpoint.perf_event_open hw ~addr:0x2000 ~tid:7 with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "open failed"
  in
  let check ?(tid = 7) addr len =
    Hw_breakpoint.check_access hw ~addr ~len ~kind:Hw_breakpoint.Read ~tid
  in
  Alcotest.(check (option int)) "disabled: no fire" None (check 0x2000 8);
  Hw_breakpoint.fcntl_setup hw fd;
  Hw_breakpoint.ioctl_enable hw fd;
  Alcotest.(check (option int)) "exact hit" (Some fd) (check 0x2000 8);
  Alcotest.(check (option int)) "partial overlap low" (Some fd) (check 0x1FFF 2);
  Alcotest.(check (option int)) "inside watch range" (Some fd) (check 0x2007 1);
  Alcotest.(check (option int)) "past range" None (check 0x2008 8);
  Alcotest.(check (option int)) "before range" None (check 0x1FF0 8);
  Alcotest.(check (option int)) "other thread: no fire" None (check ~tid:8 0x2000 8);
  Hw_breakpoint.ioctl_disable hw fd;
  Alcotest.(check (option int)) "disabled again" None (check 0x2000 8);
  Alcotest.(check int) "fd still open" 1 (Hw_breakpoint.live_fd_count hw);
  Hw_breakpoint.close hw fd;
  Alcotest.(check int) "fd closed" 0 (Hw_breakpoint.live_fd_count hw)

let test_hw_syscall_count () =
  let hw = Hw_breakpoint.create () in
  let before = Hw_breakpoint.syscall_count hw in
  (match Hw_breakpoint.perf_event_open hw ~addr:0x100 ~tid:0 with
  | Ok fd ->
    Hw_breakpoint.fcntl_setup hw fd;
    Hw_breakpoint.ioctl_enable hw fd;
    Hw_breakpoint.ioctl_disable hw fd;
    Hw_breakpoint.close hw fd
  | Error _ -> Alcotest.fail "open failed");
  (* open(1) + fcntl(4) + enable(1) + disable(1) + close(1) = 8: the paper's
     per-thread install+remove syscall budget. *)
  Alcotest.(check int) "eight syscalls per install+remove" (before + 8)
    (Hw_breakpoint.syscall_count hw)

(* ---------- Machine: trap delivery ---------- *)

let test_machine_trap_delivery () =
  let m = Machine.create () in
  let traps = ref [] in
  Machine.set_trap_handler m (fun info -> traps := info :: !traps);
  let fd =
    match Machine.install_watch m ~addr:0x8000 ~tid:0 with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "install failed"
  in
  Machine.set_pc m 0xCAFE;
  ignore (Machine.load_word m 0x8000);
  (match !traps with
  | [ info ] ->
    Alcotest.(check int) "fd" fd info.Machine.fd;
    Alcotest.(check int) "pc recorded" 0xCAFE info.Machine.pc;
    Alcotest.(check int) "tid" 0 info.Machine.tid;
    Alcotest.(check bool) "read kind" true (info.Machine.access_kind = Hw_breakpoint.Read)
  | _ -> Alcotest.fail "expected exactly one trap");
  (* Writes fire too (HW_BREAKPOINT_RW). *)
  Machine.store_word m 0x8000 5;
  Alcotest.(check int) "write also traps" 2 (List.length !traps);
  (* Unwatched accesses never trap. *)
  ignore (Machine.load_word_unwatched m 0x8000);
  Machine.store_word_unwatched m 0x8000 6;
  Alcotest.(check int) "unwatched accesses silent" 2 (List.length !traps);
  Machine.remove_watch m fd;
  ignore (Machine.load_word m 0x8000);
  Alcotest.(check int) "removed watch silent" 2 (List.length !traps)

let test_machine_trap_to_accessing_thread () =
  let m = Machine.create () in
  let tids = ref [] in
  Machine.set_trap_handler m (fun info -> tids := info.Machine.tid :: !tids);
  let worker = Threads.spawn (Machine.threads m) ~name:"w" in
  (match Machine.install_watch m ~addr:0x9000 ~tid:worker with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "install failed");
  (* Main thread touches the address: no event is armed for tid 0. *)
  ignore (Machine.load_word m 0x9000);
  Alcotest.(check (list int)) "main does not trip worker's event" [] !tids;
  Threads.set_current (Machine.threads m) worker;
  ignore (Machine.load_word m 0x9000);
  Alcotest.(check (list int)) "delivered to accessing thread" [ worker ] !tids

let test_machine_unhandled_trap_counted () =
  let m = Machine.create () in
  (match Machine.install_watch m ~addr:0x7000 ~tid:0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "install failed");
  ignore (Machine.load_word m 0x7000);
  Alcotest.(check int) "trap counted even without handler" 1 (Machine.trap_count m)

let test_machine_sbrk_and_costs () =
  let m = Machine.create () in
  let a = Machine.sbrk m 100 in
  let b = Machine.sbrk m 16 in
  Alcotest.(check int) "aligned growth" (a + 112) b;
  Alcotest.(check bool) "16-aligned" true (b mod 16 = 0);
  let before = Clock.cycles (Machine.clock m) in
  Machine.work m 500;
  Machine.charge_syscalls m 2;
  Alcotest.(check int) "work + syscalls advance the clock"
    (before + 500 + (2 * Cost.syscall))
    (Clock.cycles (Machine.clock m));
  Alcotest.(check int) "work accounted" 500 (Machine.work_cycles m);
  Alcotest.(check int) "syscalls accounted" 2 (Machine.syscall_count m)

(* A negative count is rejected before anything moves: the clock, the
   profiler's total and the work count still agree afterwards. *)
let test_machine_rejected_work_changes_nothing () =
  let m = Machine.create () in
  Machine.work m 300;
  let profiler = Telemetry.profiler (Machine.telemetry m) in
  let state () =
    ( Clock.cycles (Machine.clock m),
      Profiler.total profiler,
      Machine.work_cycles m )
  in
  let before = state () in
  let rejected name f =
    Alcotest.check_raises name
      (Invalid_argument "Clock.advance: negative cycles") f;
    Alcotest.(check (triple int int int))
      (name ^ ": clock, profiler total, work cycles") before (state ())
  in
  rejected "work" (fun () -> Machine.work m (-5));
  rejected "work_as" (fun () -> Machine.work_as m Profiler.Alloc_fast (-5))

let test_machine_backtrace_provider () =
  let m = Machine.create () in
  Machine.set_pc m 0x42;
  Alcotest.(check (list int)) "default: just pc" [ 0x42 ] (Machine.backtrace m);
  Machine.set_backtrace_provider m (fun () -> [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "provider wins" [ 1; 2; 3 ] (Machine.backtrace m)

(* The machine once kept two counting paths — a Stats.Counter shadow and
   the metrics registry — which could drift.  The registry is now the only
   one; this pins that every count accessor agrees with it after a mixed
   workload of handled traps, unhandled traps, accesses and syscalls. *)
let test_machine_counter_paths_agree () =
  let m = Machine.create () in
  let tid = Threads.current (Machine.threads m) in
  let fd =
    match Machine.install_watch m ~addr:0x500 ~tid with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "install failed"
  in
  (* Unhandled traps first (no handler installed), then handled ones. *)
  Machine.store_word m 0x500 1;
  ignore (Machine.load_word m 0x500);
  let handled = ref 0 in
  Machine.set_trap_handler m (fun _ -> incr handled);
  for i = 1 to 3 do
    Machine.store_word m 0x500 i
  done;
  Machine.remove_watch m fd;
  ignore (Machine.load_word m 0x500);
  let reg = List.to_seq (Metrics.counters_list (Machine.registry m)) in
  let metric name = Option.value ~default:0 (Seq.find_map (fun (k, v) -> if k = name then Some v else None) reg) in
  Alcotest.(check int) "handled traps ran" 3 !handled;
  Alcotest.(check int) "trap_count = registry" (metric "trap.count")
    (Machine.trap_count m);
  Alcotest.(check int) "access_count = registry" (metric "machine.accesses")
    (Machine.access_count m);
  Alcotest.(check int) "syscall_count = registry" (metric "machine.syscalls")
    (Machine.syscall_count m);
  Alcotest.(check int) "traps: 2 unhandled + 3 handled" 5
    (Machine.trap_count m);
  Alcotest.(check int) "unhandled counted" 2 (metric "trap.unhandled");
  Alcotest.(check int) "accesses counted" 6 (Machine.access_count m)

let suite =
  [ Alcotest.test_case "sparse mem bytes" `Quick test_mem_bytes;
    Alcotest.test_case "sparse mem words" `Quick test_mem_words;
    Alcotest.test_case "sparse mem cross-chunk" `Quick test_mem_cross_chunk;
    Alcotest.test_case "sparse mem fill/int" `Quick test_mem_fill_and_int;
    Alcotest.test_case "sparse mem negative addr" `Quick test_mem_negative_addr;
    Alcotest.test_case "sparse mem frames" `Quick test_mem_frames;
    Alcotest.test_case "sparse mem recycled pages read zero" `Quick
      test_mem_recycled_reads_zero;
    QCheck_alcotest.to_alcotest prop_mem_roundtrip;
    Alcotest.test_case "clock" `Quick test_clock;
    Alcotest.test_case "threads" `Quick test_threads;
    Alcotest.test_case "hw: four slots" `Quick test_hw_slots;
    Alcotest.test_case "hw: trigger semantics" `Quick test_hw_trigger_semantics;
    Alcotest.test_case "hw: syscall budget" `Quick test_hw_syscall_count;
    Alcotest.test_case "machine: trap delivery" `Quick test_machine_trap_delivery;
    Alcotest.test_case "machine: trap to accessing thread" `Quick
      test_machine_trap_to_accessing_thread;
    Alcotest.test_case "machine: unhandled trap" `Quick test_machine_unhandled_trap_counted;
    Alcotest.test_case "machine: sbrk and costs" `Quick test_machine_sbrk_and_costs;
    Alcotest.test_case "machine: rejected work changes nothing" `Quick
      test_machine_rejected_work_changes_nothing;
    Alcotest.test_case "machine: backtrace provider" `Quick test_machine_backtrace_provider;
    Alcotest.test_case "machine: counter paths never diverge" `Quick
      test_machine_counter_paths_agree ]
