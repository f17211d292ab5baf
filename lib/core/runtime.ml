type stats = {
  contexts : int;
  allocations : int;
  watched_times : int;
  traps : int;
  canary_checks : int;
  live_objects : int;
}

type t = {
  params : Params.t;
  machine : Machine.t;
  heap : Heap.t;
  store : Persist.t;
  contexts : Context_table.t;
  watches : Watch_table.t;
  rng : Prng.t; (* sampling decisions; per paper, per-thread generators *)
  canary : Canary.t; (* evidence mode: the run's canary, header reads *)
  c_decisions : Metrics.counter;
  c_watched : Metrics.counter;
  c_reports : Metrics.counter;
  c_corruptions : Metrics.counter;
  c_install_failures : Metrics.counter;
  c_degraded : Metrics.counter;
  respond : Respond.t option;
  (* Objects already reported, keyed (obj_addr, installed_at): under the
     oblivious policy a watchpoint stays armed after its first hit (every
     later out-of-bounds access must still be redirected), so the one-
     report-per-object rule needs its own memory. *)
  reported : (int * float, unit) Hashtbl.t;
  mutable reports : Report.t list; (* newest first *)
  mutable traps : int;
  mutable consecutive_install_failures : int;
  mutable degraded : bool; (* canary-only: watchpoint machinery given up *)
  mutable finished : bool;
}

(* Consecutive fault-induced installation failures tolerated before the
   runtime stops fighting for the debug registers and falls back to
   canary-only detection.  Three failed installs is nine failed opens
   (each install retries EBUSY up to three times). *)
let degrade_threshold = 3

let now t = Clock.seconds (Machine.clock t.machine)
let cycles t = Clock.cycles (Machine.clock t.machine)

let record_overflow t (entry : Context_table.entry) report =
  t.reports <- report :: t.reports;
  Metrics.incr t.c_reports;
  Flight_recorder.detection ~at:(cycles t) ~addr:report.Report.object_addr
    ~ctx:entry.Context_table.id
    ~source:(Report.source_name report.Report.source);
  Context_table.pin t.contexts entry;
  Persist.add t.store entry.Context_table.key

(* Under the oblivious policy, compensate for the access that just trapped:
   the write is squashed into the shadow slab, the read is overridden with
   the slab value.  No PRNG draw, no extra clock charge — response must not
   perturb the sampling stream. *)
let redirect_trap t r (wp : Watch_table.wp) (info : Machine.trap_info) =
  Respond.redirect r ~source:Respond.Watchpoint
    ~kind:
      (match info.Machine.access_kind with
      | Hw_breakpoint.Read -> Tool.Read
      | Hw_breakpoint.Write -> Tool.Write)
    ~ctx:wp.Watch_table.entry.Context_table.key ~obj:wp.Watch_table.obj_addr
    ~addr:info.Machine.access_addr ~len:info.Machine.access_len ~at:(cycles t)

let handle_trap t (info : Machine.trap_info) =
  t.traps <- t.traps + 1;
  match Watch_table.find_by_fd t.watches info.Machine.fd with
  | None -> () (* stale descriptor: the watchpoint raced with removal *)
  | Some wp ->
    let oblivious =
      match t.respond with Some r -> Respond.oblivious r | None -> false
    in
    let wp_id = (wp.Watch_table.obj_addr, wp.Watch_table.installed_at) in
    let first_hit = not (oblivious && Hashtbl.mem t.reported wp_id) in
    if first_hit then begin
      (* The paper reports the statement and full calling context of the
         access (via backtrace in the handler) plus the allocation calling
         context, saved when the context was first seen. *)
      Machine.work t.machine Cost.backtrace_full;
      let access_bt = Machine.backtrace t.machine in
      let kind =
        match info.Machine.access_kind with
        | Hw_breakpoint.Read -> Report.Over_read
        | Hw_breakpoint.Write -> Report.Over_write
      in
      let report =
        { Report.kind;
          source = Report.Watchpoint;
          access_backtrace = access_bt;
          alloc_backtrace =
            Context_table.full_ctx t.contexts wp.Watch_table.entry;
          ctx_key = wp.Watch_table.entry.Context_table.key;
          object_addr = wp.Watch_table.obj_addr;
          watch_addr = wp.Watch_table.watch_addr;
          tid = info.Machine.tid;
          at_sec = now t }
      in
      record_overflow t wp.Watch_table.entry report
    end;
    match t.respond with
    | Some r when Respond.oblivious r ->
      (* Keep the watchpoint armed: the object's later out-of-bounds
         accesses must be redirected too, or the execution corrupts memory
         it already proved it overflows.  [reported] keeps the one-report-
         per-object discipline instead of slot release. *)
      if first_hit then Hashtbl.replace t.reported wp_id ();
      redirect_trap t r wp info
    | _ ->
      (* One report per object: release the slot so other objects can be
         watched for the remainder of the execution. *)
      Watch_table.remove t.watches wp

let k_decisions = Metrics.counter_key "smu.decisions"
let k_watched = Metrics.counter_key "smu.watched"
let k_reports = Metrics.counter_key "report.count"
let k_corruptions = Metrics.counter_key "canary.corruptions"
let k_install_failures = Metrics.counter_key "runtime.install_failures"
let k_degraded = Metrics.counter_key "runtime.degraded"

let create ?(params = Params.default) ?store ?respond ?(seed = 0) ~machine
    ~heap () =
  let root = Machine.rng machine in
  (* Four streams split off the machine's in a fixed order, each offset by
     [seed] draws so distinct executions sample differently. *)
  let rng = Prng.split root in
  let canary_rng = Prng.split root in
  let watch_rng = Prng.split root in
  let context_rng = Prng.split root in
  let offset = seed land 0xff in
  Prng.advance rng offset;
  Prng.advance canary_rng offset;
  Prng.advance watch_rng offset;
  Prng.advance context_rng offset;
  let reg = Machine.registry machine in
  let t =
    { params;
      machine;
      heap;
      store = (match store with Some s -> s | None -> Persist.create ());
      contexts = Context_table.create ~params ~machine ~rng:context_rng;
      watches = Watch_table.create ~params ~machine ~rng:watch_rng;
      rng;
      canary = Canary.create machine (Prng.canary64 canary_rng);
      c_decisions = Metrics.counter reg k_decisions;
      c_watched = Metrics.counter reg k_watched;
      c_reports = Metrics.counter reg k_reports;
      c_corruptions = Metrics.counter reg k_corruptions;
      c_install_failures = Metrics.counter reg k_install_failures;
      c_degraded = Metrics.counter reg k_degraded;
      respond;
      reported = Hashtbl.create 16;
      reports = [];
      traps = 0;
      consecutive_install_failures = 0;
      degraded = false;
      finished = false }
  in
  Machine.set_trap_handler machine (handle_trap t);
  t

let evidence t = t.params.Params.evidence

(* Track the outcome of a direct installation attempt.  A bounded run of
   fault-induced failures (EBUSY past the retry budget, EACCES) flips the
   runtime into canary-only mode: watchpoints are abandoned for the rest of
   the execution but evidence-mode canaries keep detecting.  The flip is
   recorded as an explicit probability transition so post-mortems show
   {e why} sampling stopped. *)
let note_install t (entry : Context_table.entry) ok =
  if ok then t.consecutive_install_failures <- 0
  else begin
    Metrics.incr t.c_install_failures;
    t.consecutive_install_failures <- t.consecutive_install_failures + 1;
    if t.consecutive_install_failures >= degrade_threshold && not t.degraded
    then begin
      t.degraded <- true;
      Metrics.incr t.c_degraded;
      Flight_recorder.prob ~at:(cycles t) ~ctx:entry.Context_table.id
        ~cause:Flight_recorder.Degrade
        ~from_p:(Context_table.effective_prob t.contexts entry)
        ~to_p:0.0
    end
  end;
  ok

(* Decide whether to watch the freshly allocated object, per Section III.
   Returns true when a watchpoint now guards it.  In canary-only mode there
   are no draws and no installs, but the decision is still recorded so
   traces show the allocation was seen and skipped.  During start-up the
   first few objects are watched regardless of probability ("installation
   due to availability", see {!Watch_table.in_startup}). *)
let consider_watch t (entry : Context_table.entry) ~app ~watch_addr =
  Metrics.incr t.c_decisions;
  let startup =
    (not t.degraded)
    && Watch_table.in_startup t.watches
    && Watch_table.has_free_slot t.watches
  in
  let p =
    if t.degraded then 0.0
    else if startup then 1.0
    else begin
      Machine.work_as t.machine Profiler.Smu_decision Cost.rng_draw;
      Context_table.effective_prob t.contexts entry
    end
  in
  let coin = startup || ((not t.degraded) && Prng.below_percent t.rng p) in
  let watched =
    if not coin then false
    else if startup || Watch_table.has_free_slot t.watches then
      note_install t entry
        (Watch_table.install t.watches ~obj_addr:app ~watch_addr ~entry)
    else
      Watch_table.try_replace t.watches ~obj_addr:app ~watch_addr ~entry
        ~new_prob:p
  in
  if Flight_recorder.active () then
    Flight_recorder.decision ~at:(cycles t) ~addr:app
      ~ctx:entry.Context_table.id ~prob:p ~coin ~watched ~startup;
  watched

(* Guard slack a code-less patch adds past the object.  Overflows of up to
   this many bytes land in memory the allocation owns — below the canary,
   past the reach of any neighbour — so the bug becomes harmless without a
   report, a watchpoint or a code change. *)
let patch_pad = 64

(* Code-less patching: is this context convicted?  Pure store arithmetic —
   no draws, no clock — so patch decisions are identical on every domain
   that sees the same store. *)
let patch_convicted t (entry : Context_table.entry) =
  match t.respond with
  | Some r -> (
    match Respond.patch_threshold r with
    | Some threshold ->
      Persist.hits t.store entry.Context_table.key >= threshold
    | None -> false)
  | None -> false

let csod_malloc t ~size ~ctx =
  let entry = Context_table.on_allocation t.contexts ctx in
  if patch_convicted t entry then begin
    (* Convicted context: over-allocate with guard slack and plant the
       canary past it.  The object is deliberately not watched and not
       pinned — the whole point of the patch is that this context's
       overflow no longer needs (or produces) evidence. *)
    let padded = size + patch_pad in
    let request = Canary.padded_request ~evidence:(evidence t) padded in
    let base = Heap.malloc t.heap request in
    let app =
      if evidence t then
        Canary.plant t.canary ~base ~size:padded ~ctx_id:entry.Context_table.id
      else base
    in
    if Flight_recorder.active () then begin
      let site, off = entry.Context_table.key in
      Flight_recorder.alloc ~at:(cycles t) ~addr:app ~size:padded
        ~ctx:entry.Context_table.id ~site ~off
    end;
    (match t.respond with
    | Some r ->
      Respond.record_patch r ~ctx:entry.Context_table.key ~addr:app
        ~at:(cycles t)
    | None -> ());
    app
  end
  else begin
    (* Most runs carry no persisted evidence: skip the per-allocation store
       probe entirely when the store is empty or the entry already pinned. *)
    if
      (not entry.Context_table.pinned)
      && Persist.count t.store > 0
      && Persist.mem t.store entry.Context_table.key
    then Context_table.pin t.contexts entry;
    let request = Canary.padded_request ~evidence:(evidence t) size in
    let base = Heap.malloc t.heap request in
    let app =
      if evidence t then
        Canary.plant t.canary ~base ~size ~ctx_id:entry.Context_table.id
      else base
    in
    let watch_addr = Canary.boundary_addr ~app ~size in
    if Flight_recorder.active () then begin
      let site, off = entry.Context_table.key in
      Flight_recorder.alloc ~at:(cycles t) ~addr:app ~size
        ~ctx:entry.Context_table.id ~site ~off
    end;
    let watched = consider_watch t entry ~app ~watch_addr in
    if watched then begin
      Metrics.incr t.c_watched;
      Context_table.note_watched t.contexts entry
    end;
    app
  end

(* Evidence mode: everything [free] needs is in the object header the
   allocation path planted (Figure 5) — no side table exists.  The
   header, and with it the canary's verdict, is the one [Canary.read_header]
   just read for [app]. *)
let check_canary t ~app ~source =
  let size = Canary.object_size t.canary and ctx_id = Canary.context_id t.canary in
  if not (Canary.check t.canary) then begin
    Metrics.incr t.c_corruptions;
    match Context_table.find_by_id t.contexts ctx_id with
    | None -> () (* corrupted header: the canary itself already proves it *)
    | Some entry ->
      let report =
        { Report.kind = Report.Over_write;
          source;
          access_backtrace = [];
          alloc_backtrace = Context_table.full_ctx t.contexts entry;
          ctx_key = entry.Context_table.key;
          object_addr = app;
          watch_addr = Canary.boundary_addr ~app ~size;
          tid = Threads.current (Machine.threads t.machine);
          at_sec = now t }
      in
      record_overflow t entry report;
      (* A corrupted canary means the overflow already escaped into
         adjacent memory before any redirect could happen — e.g. the
         watchpoint was never installed, or its trap was dropped by a fault
         plan.  Under the oblivious policy this disqualifies the execution
         from claiming survival: a dropped trap must not fake one. *)
      match t.respond with
      | Some r when Respond.oblivious r ->
        Respond.record_escape r ~source:Respond.Canary
          ~ctx:entry.Context_table.key ~addr:app ~at:(cycles t)
      | _ -> ()
  end

let csod_free t ~ptr =
  if ptr = 0 then Heap.free t.heap 0
  else begin
    ignore (Watch_table.on_free t.watches ~obj_addr:ptr);
    (match t.respond with
    | Some r when Respond.oblivious r -> Respond.release r ~obj:ptr
    | _ -> ());
    if evidence t && Canary.read_header t.canary ~app:ptr then begin
      let base = Canary.real_base t.canary in
      check_canary t ~app:ptr ~source:Report.Canary_free;
      Heap.free t.heap base
    end
    else
      (* No CSOD header (or no evidence mode): a foreign pointer is the
         heap's to diagnose. *)
      Heap.free t.heap ptr;
    (* Recorded last so an object's story closes after its at-free canary
       check and any detection that check produced. *)
    Flight_recorder.free ~at:(cycles t) ~addr:ptr
  end

let finish t =
  if not t.finished then begin
    t.finished <- true;
    if evidence t then
      Heap.iter_live
        (fun ~addr ~size:_ ->
          (* [addr] is the raw block; the application pointer sits past the
             header.  Only blocks carrying the CSOD identifier are ours. *)
          let app = Canary.app_ptr ~evidence:true ~base:addr in
          if Canary.read_header t.canary ~app && Canary.real_base t.canary = addr
          then check_canary t ~app ~source:Report.Canary_exit)
        t.heap;
    Machine.clear_trap_handler t.machine
  end

let tool t =
  { Tool.name = "csod";
    malloc = (fun ~size ~ctx -> csod_malloc t ~size ~ctx);
    free = (fun ~ptr -> csod_free t ~ptr);
    on_access = (fun ~addr:_ ~len:_ ~kind:_ ~site:_ -> ());
    at_exit = (fun () -> finish t);
    extra_resident_bytes = (fun () -> Context_table.memory_bytes t.contexts) }

let store t = t.store
let degraded t = t.degraded
let detections t = List.rev t.reports
let detected t = t.reports <> []

let stats t =
  { contexts = Context_table.num_contexts t.contexts;
    allocations = Context_table.total_allocations t.contexts;
    watched_times = Watch_table.installs t.watches;
    traps = t.traps;
    canary_checks = Canary.checks t.machine;
    live_objects = Heap.live_objects t.heap }

let context_table t = t.contexts
let watch_table t = t.watches

let extra_resident_bytes t = Context_table.memory_bytes t.contexts
