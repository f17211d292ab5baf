let max_sim_allocations = 2_000_000

type result = {
  config : Config.t;
  cycles : int;
  sim_allocations : int;
  scale : int;
  watched_times : int;
  contexts_seen : int;
  resident_kb : int;
  syscalls : int;
  detected : bool;
  telemetry : Telemetry.t;
}

(* Code-address bases for the synthetic context census: one-shot "cold"
   contexts and the hot set carrying ~90% of allocations. *)
let cold_base = 0x100000
let hot_base = 0x200000

let run ~(profile : Perf_profile.t) ~config ?(seed = 11) () =
  let machine = Machine.create ~seed () in
  let heap = Heap.create machine in
  let inst = Config.instantiate config ~machine ~heap ~seed () in
  let tool = inst.Config.tool in
  (* Worker threads exist before the allocation stream begins; watchpoint
     installs pay their per-thread syscalls for all of them. *)
  for w = 2 to profile.Perf_profile.threads do
    ignore (Threads.spawn (Machine.threads machine) ~name:(Printf.sprintf "worker%d" w))
  done;
  Machine.work_as machine Profiler.Init inst.Config.startup_cycles;
  let n = profile.Perf_profile.allocations in
  let scale = max 1 ((n + max_sim_allocations - 1) / max_sim_allocations) in
  let nsim = max 1 (n / scale) in
  let compute_total =
    int_of_float (profile.Perf_profile.runtime_sec *. float_of_int Cost.cycles_per_second)
  in
  let compute_per_iter = max 1 (compute_total / nsim) in
  (* ASan pays a shadow check on every instrumented access; the baseline's
     access time is already inside the compute budget. *)
  let access_charge_per_iter =
    match config with
    | Config.Asan _ ->
      let accesses =
        profile.Perf_profile.access_rate *. profile.Perf_profile.runtime_sec
      in
      int_of_float (accesses /. float_of_int nsim) * Cost.shadow_check
    | Config.Baseline | Config.Csod _ -> 0
  in
  let live = Array.make (Perf_profile.live_target profile) 0 in
  let rng = Prng.create ~seed:(seed * 7919 + 13) in
  let contexts = profile.Perf_profile.contexts in
  let hot = max 1 profile.Perf_profile.hot_contexts in
  (* Mint the cold census evenly across the run: real programs keep
     discovering new allocation sites as they move through phases. *)
  let cold = max 0 (contexts - hot) in
  let mint_every = if cold = 0 then max_int else max 1 (nsim / (cold + 1)) in
  let next_cold = ref 0 in
  let avg = profile.Perf_profile.avg_obj_bytes in
  (* One handle, re-pointed before each malloc. *)
  let ctx = Alloc_ctx.synthetic ~callsite:0 () in
  for i = 0 to nsim - 1 do
    Machine.work machine compute_per_iter;
    if access_charge_per_iter > 0 then Machine.work machine access_charge_per_iter;
    let callsite =
      if !next_cold < cold && i mod mint_every = mint_every - 1 then begin
        let c = cold_base + !next_cold in
        incr next_cold;
        c
      end
      else if Prng.int rng 10 < 9 then hot_base + Prng.int rng hot
      else cold_base + Prng.int rng (Int.max 1 cold)
    in
    Alloc_ctx.point ctx ~callsite ~stack_offset:(callsite land 0xff);
    (* a handful of distinct size classes per program, as real
       allocators observe; spread around the profile mean.  [Int.max],
       not the polymorphic [max], which calls into C's compare *)
    let size = Int.max 1 ((avg / 2) + (Int.max 1 (avg / 4) * Prng.int rng 5)) in
    let slot = i mod Array.length live in
    if live.(slot) <> 0 then tool.Tool.free ~ptr:live.(slot);
    live.(slot) <- tool.Tool.malloc ~size ~ctx
  done;
  inst.Config.finish ();
  (* Resident peak: heap blocks plus tool side structures. *)
  let resident_bytes =
    Heap.resident_bytes heap + tool.Tool.extra_resident_bytes ()
  in
  let measured = Clock.cycles (Machine.clock machine) in
  let charged = (compute_per_iter + access_charge_per_iter) * nsim in
  let tool_alloc_cycles = max 0 (measured - charged - inst.Config.startup_cycles) in
  let cycles =
    inst.Config.startup_cycles + charged + (tool_alloc_cycles * scale)
  in
  let watched_times, contexts_seen =
    match inst.Config.csod with
    | Some rt ->
      let s = Runtime.stats rt in
      (s.Runtime.watched_times, s.Runtime.contexts)
    | None -> (0, 0)
  in
  let result =
    { config;
      cycles;
      sim_allocations = nsim;
      scale;
      watched_times;
      contexts_seen;
      resident_kb = resident_bytes / 1024;
      syscalls = Machine.syscall_count machine;
      detected = inst.Config.detected ();
      telemetry = Machine.telemetry machine }
  in
  (* Every field is computed: hand the pages and the heap's and context
     table's stores to the next stream on this domain. *)
  Sparse_mem.release (Machine.mem machine);
  result

let overhead ~baseline r = float_of_int r.cycles /. float_of_int baseline.cycles
