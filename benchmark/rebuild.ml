(* [Execution.run] and [Perf_driver.run] rebuilt call for call from public
   calls, with a span around each call into a layer.  Both return the
   library's own result types, and every trial's digest must equal the
   library path's, so a mirror that drifts from the original fails the
   run instead of measuring something else. *)

let instrumented (app : Buggy_app.t) program site =
  match Program.module_of_addr program site with
  | Some m -> List.mem m app.Buggy_app.instrumented_modules
  | None -> false

let execution span ~(app : Buggy_app.t) ~config ~input ~seed ?store
    ~snapshot_cycles () : Execution.outcome =
  Span.execution span (fun () ->
      let program = Buggy_app.program app in
      let machine =
        Span.with_span span "machine.create" (fun () -> Machine.create ~seed ())
      in
      if snapshot_cycles > 0 then
        Telemetry.set_snapshot_interval (Machine.telemetry machine)
          ~cycles:snapshot_cycles;
      let heap = Span.with_span span "heap.create" (fun () -> Heap.create machine) in
      let inst =
        Span.with_span span "runtime.create" (fun () ->
            Config.instantiate config ~machine ~heap
              ~instrumented:(instrumented app program) ?store ~seed ())
      in
      let inputs =
        match input with
        | Execution.Buggy -> app.Buggy_app.buggy_inputs
        | Execution.Benign -> app.Buggy_app.benign_inputs
      in
      let output, crashed =
        Span.with_span span "program.run" (fun () ->
            try
              let r =
                Engine.run ~engine:Engine.Vm ~machine
                  ~tool:(Span.wrap_tool span inst.Config.tool) ~program ~inputs
                  ~app_seed:seed ()
              in
              (r.Interp.output, None)
            with
            | Interp.Runtime_error (msg, loc) ->
              ("", Some (Printf.sprintf "%s: %s" (Srcloc.to_string loc) msg))
            | Heap.Error msg -> ("", Some msg))
      in
      Span.with_span span "runtime.finish" inst.Config.finish;
      let reports =
        match inst.Config.csod with Some rt -> Runtime.detections rt | None -> []
      in
      let outcome =
        { Execution.detected = inst.Config.detected ();
          reports;
          watchpoint_reports =
            List.filter (fun r -> r.Report.source = Report.Watchpoint) reports;
          asan_detections =
            (match inst.Config.asan with Some a -> Asan.detections a | None -> []);
          stats = Option.map Runtime.stats inst.Config.csod;
          cycles = Clock.cycles (Machine.clock machine);
          output;
          crashed;
          degraded =
            (match inst.Config.csod with
            | Some rt -> Runtime.degraded rt
            | None -> false);
          faults = None;
          telemetry = Machine.telemetry machine;
          respond = None;
          survived = false }
      in
      Sparse_mem.release (Machine.mem machine);
      outcome)

(* [Execution.executor] over the rebuilt execution. *)
let executor span ~app ~config : Execution.outcome Fleet.executor =
 fun ~user ~store ->
  let input =
    if user.Workload.benign then Execution.Benign else Execution.Buggy
  in
  let o =
    execution span ~app ~config ~input ~seed:user.Workload.seed ~store
      ~snapshot_cycles:0 ()
  in
  { Fleet.payload = o;
    detected = o.Execution.detected;
    source =
      (match o.Execution.reports with r :: _ -> Some r.Report.source | [] -> None);
    cycles = o.Execution.cycles;
    telemetry = Some o.Execution.telemetry;
    degraded = o.Execution.degraded }

(* Perf_driver's code-address bases for its synthetic context census. *)
let cold_base = 0x100000
let hot_base = 0x200000

let perf_run span ~(profile : Perf_profile.t) ~config ~seed : Perf_driver.result =
  Span.execution span (fun () ->
      let machine =
        Span.with_span span "machine.create" (fun () -> Machine.create ~seed ())
      in
      let heap = Span.with_span span "heap.create" (fun () -> Heap.create machine) in
      let inst =
        Span.with_span span "runtime.create" (fun () ->
            Config.instantiate config ~machine ~heap ~seed ())
      in
      let tool = Span.wrap_tool span inst.Config.tool in
      for w = 2 to profile.Perf_profile.threads do
        ignore
          (Threads.spawn (Machine.threads machine)
             ~name:(Printf.sprintf "worker%d" w))
      done;
      Machine.work_as machine Profiler.Init inst.Config.startup_cycles;
      let n = profile.Perf_profile.allocations in
      let max_sim = Perf_driver.max_sim_allocations in
      let scale = max 1 ((n + max_sim - 1) / max_sim) in
      let nsim = max 1 (n / scale) in
      let compute_total =
        int_of_float
          (profile.Perf_profile.runtime_sec *. float_of_int Cost.cycles_per_second)
      in
      let compute_per_iter = max 1 (compute_total / nsim) in
      let access_charge_per_iter =
        match config with
        | Config.Asan _ ->
          let accesses =
            profile.Perf_profile.access_rate *. profile.Perf_profile.runtime_sec
          in
          int_of_float (accesses /. float_of_int nsim) * Cost.shadow_check
        | Config.Baseline | Config.Csod _ -> 0
      in
      Span.with_span span "program.run" (fun () ->
          let live = Array.make (Perf_profile.live_target profile) 0 in
          let rng = Prng.create ~seed:((seed * 7919) + 13) in
          let contexts = profile.Perf_profile.contexts in
          let hot = max 1 profile.Perf_profile.hot_contexts in
          let cold = max 0 (contexts - hot) in
          let mint_every = if cold = 0 then max_int else max 1 (nsim / (cold + 1)) in
          let next_cold = ref 0 in
          let avg = profile.Perf_profile.avg_obj_bytes in
          for i = 0 to nsim - 1 do
            Machine.work machine compute_per_iter;
            if access_charge_per_iter > 0 then
              Machine.work machine access_charge_per_iter;
            let callsite =
              if !next_cold < cold && i mod mint_every = mint_every - 1 then begin
                let c = cold_base + !next_cold in
                incr next_cold;
                c
              end
              else if Prng.int rng 10 < 9 then hot_base + Prng.int rng hot
              else cold_base + Prng.int rng (max 1 cold)
            in
            let ctx =
              Alloc_ctx.synthetic ~callsite ~stack_offset:(callsite land 0xff) ()
            in
            let size = max 1 ((avg / 2) + (max 1 (avg / 4) * Prng.int rng 5)) in
            let slot = i mod Array.length live in
            if live.(slot) <> 0 then tool.Tool.free ~ptr:live.(slot);
            live.(slot) <- tool.Tool.malloc ~size ~ctx
          done);
      Span.with_span span "runtime.finish" inst.Config.finish;
      let resident_bytes =
        Heap.resident_bytes heap + tool.Tool.extra_resident_bytes ()
      in
      let measured = Clock.cycles (Machine.clock machine) in
      let charged = (compute_per_iter + access_charge_per_iter) * nsim in
      let tool_alloc_cycles =
        max 0 (measured - charged - inst.Config.startup_cycles)
      in
      let watched_times, contexts_seen =
        match inst.Config.csod with
        | Some rt ->
          let s = Runtime.stats rt in
          (s.Runtime.watched_times, s.Runtime.contexts)
        | None -> (0, 0)
      in
      { Perf_driver.config;
        cycles = inst.Config.startup_cycles + charged + (tool_alloc_cycles * scale);
        sim_allocations = nsim;
        scale;
        watched_times;
        contexts_seen;
        resident_kb = resident_bytes / 1024;
        syscalls = Machine.syscall_count machine;
        detected = inst.Config.detected ();
        telemetry = Machine.telemetry machine })
