(* All-float, so OCaml stores it flat: updating a probability or a window
   time writes a word in place.  As fields of [entry], beside its ints,
   each update would box a fresh float — one per allocation for the decay
   alone. *)
type sampling = {
  mutable prob : float;
  mutable window_start : float;
  mutable burst_until : float;
  mutable floor_since : float;
}

type entry = {
  id : int;
  key : Alloc_ctx.key;
  s : sampling;
  mutable allocs : int;
  mutable watches : int;
  mutable window_count : int;
  mutable pinned : bool;
  bt_off : int;
  bt_len : int;
}

(* One {!Int_index} from (call site, stack offset) to an id, into a dense
   array of entries indexed by id: ids are dense and handed out in
   first-sight order, and entries are never removed.  A lookup that finds
   its context allocates nothing.  The arrays go back to a domain-local
   spare at their grown size when the machine's memory is released, so a
   warm execution builds none. *)
type store = {
  mutable entries : entry array;
  mutable count : int;
  index : Int_index.t;
  (* Every context's full backtrace, innermost first, one after another:
     written once on first sight by the handle's writer, read only to
     build a report. *)
  bt : Alloc_ctx.chain;
}

type t = {
  params : Params.t;
  machine : Machine.t;
  rng : Prng.t;
  mutable st : store;
  c_allocations : Metrics.counter;
  c_bursts : Metrics.counter;
  c_revivals : Metrics.counter;
  g_contexts : Metrics.gauge;
}

(* Fills unused entry slots. *)
let no_entry =
  { id = -1;
    key = (min_int, min_int);
    s = { prob = 0.0; window_start = 0.0; burst_until = 0.0; floor_since = 0.0 };
    allocs = 0;
    watches = 0;
    window_count = 0;
    pinned = false;
    bt_off = 0;
    bt_len = 0 }

(* Table V charges the paper's table "sized to a large number" up front:
   2,048 buckets, a 4-word chain node and 10 words per entry, 8 bytes per
   frame of its full context.  These are model constants; the index the
   simulator probes starts small and grows. *)
let charged_buckets = 2048
let initial_slots = 32
let bt_slots = 1024

let fresh_store () =
  { entries = Array.make initial_slots no_entry;
    count = 0;
    index = Int_index.create initial_slots;
    bt = Alloc_ctx.chain bt_slots }

let spare_stores : store Spare.t = Spare.create ()

(* What a released table points at: it holds no context, and a lookup in
   its empty index finds none.  Nothing ever writes to it — the
   first context a released table sees gives it a store of its own
   ([on_allocation]). *)
let no_store =
  { entries = [||]; count = 0; index = Int_index.create 0; bt = Alloc_ctx.chain 0 }

(* Hand the arrays to the next table on this domain, emptied: the index
   loses the keys of this execution's contexts, and the entries are
   dropped so the spare does not keep them alive.  The released table
   forgets its contexts and points at [no_store], so it stays usable
   without aliasing its successor's arrays, and builds its own only if it
   sees a context again. *)
let recycle t =
  let s = t.st in
  t.st <- no_store;
  for id = 0 to s.count - 1 do
    let site, off = s.entries.(id).key in
    ignore (Int_index.remove s.index site off)
  done;
  Array.fill s.entries 0 s.count no_entry;
  s.count <- 0;
  s.bt.Alloc_ctx.len <- 0;
  Spare.give spare_stores s

let k_allocations = Metrics.counter_key "smu.allocations"
let k_bursts = Metrics.counter_key "smu.burst_throttles"
let k_revivals = Metrics.counter_key "smu.revivals"
let k_contexts = Metrics.gauge_key "smu.contexts"

let create ~params ~machine ~rng =
  let reg = Machine.registry machine in
  let t =
    { params;
      machine;
      rng;
      st = Spare.take spare_stores ~fresh:fresh_store;
      c_allocations = Metrics.counter reg k_allocations;
      c_bursts = Metrics.counter reg k_bursts;
      c_revivals = Metrics.counter reg k_revivals;
      g_contexts = Metrics.gauge reg k_contexts }
  in
  Sparse_mem.on_release (Machine.mem machine) (fun () -> recycle t);
  t

(* Append [e] under its key, doubling the entries when full. *)
let add s (e : entry) site off =
  let id = s.count in
  if id = Array.length s.entries then begin
    let a = Array.make (2 * id) no_entry in
    Array.blit s.entries 0 a 0 id;
    s.entries <- a
  end;
  s.entries.(id) <- e;
  s.count <- id + 1;
  Int_index.add s.index site off id

(* [Clock.seconds], computed here: a [float] returned from another module
   is boxed, and the allocation path reads the time on every call. *)
let[@inline] now t =
  float_of_int (Clock.cycles (Machine.clock t.machine))
  /. float_of_int Cost.cycles_per_second

let cycles t = Clock.cycles (Machine.clock t.machine)
let prob e = e.s.prob

(* Flight-recorder hook for one probability transition; skipped entirely
   (and the no-change case suppressed) when no recorder is installed.
   Inlined so [from_p] is never boxed. *)
let[@inline] note_prob t (e : entry) cause ~from_p =
  if from_p <> e.s.prob then
    Flight_recorder.prob ~at:(cycles t) ~ctx:e.id ~cause ~from_p ~to_p:e.s.prob

let at_floor t e = e.s.prob <= t.params.Params.min_prob +. 1e-12

let clamp_floor t e =
  if e.s.prob < t.params.Params.min_prob then begin
    e.s.prob <- t.params.Params.min_prob;
    if e.s.floor_since = 0.0 then e.s.floor_since <- now t
  end

let fresh_entry t (ctx : Alloc_ctx.t) =
  (* First sight of this context: the paper acquires the whole calling
     context once, with the expensive backtrace walk, which the handle's
     writer appends straight to the table's buffer (and charges). *)
  let bt = t.st.bt in
  let bt_off = bt.Alloc_ctx.len in
  ctx.Alloc_ctx.write bt;
  { id = t.st.count;
    key = (ctx.Alloc_ctx.callsite, ctx.Alloc_ctx.stack_offset);
    s =
      { prob = t.params.Params.initial_prob;
        window_start = now t;
        burst_until = 0.0;
        floor_since = 0.0 };
    allocs = 0;
    watches = 0;
    window_count = 0;
    pinned = false;
    bt_off;
    bt_len = bt.Alloc_ctx.len - bt_off }

let full_ctx t e = Alloc_ctx.to_list t.st.bt ~off:e.bt_off ~len:e.bt_len

let on_allocation t ctx =
  Machine.work_as t.machine Profiler.Smu_lookup Cost.context_lookup;
  let site = ctx.Alloc_ctx.callsite and off = ctx.Alloc_ctx.stack_offset in
  let id = Int_index.find t.st.index site off in
  let e =
    if id >= 0 then t.st.entries.(id)
    else begin
      if t.st == no_store then t.st <- fresh_store ();
      let e = fresh_entry t ctx in
      add t.st e site off;
      e
    end
  in
  if e.allocs = 0 then Metrics.set t.g_contexts t.st.count;
  Metrics.incr t.c_allocations;
  e.allocs <- e.allocs + 1;
  Machine.work_as t.machine Profiler.Smu_lookup Cost.prob_update;
  let tnow = now t in
  let recording = Flight_recorder.active () in
  let s = e.s in
  (* Degradation on each allocation. *)
  let before_decay = s.prob in
  s.prob <- s.prob -. t.params.Params.degrade_per_alloc;
  clamp_floor t e;
  if recording then note_prob t e Flight_recorder.Decay ~from_p:before_decay;
  (* Burst bookkeeping: count allocations in the rolling window. *)
  if tnow -. s.window_start > t.params.Params.burst_window_sec then begin
    s.window_start <- tnow;
    e.window_count <- 0;
    (* An active throttle expires with its window: the probability is
       "again increased to the lower bound". *)
    if s.burst_until > 0.0 && tnow >= s.burst_until then s.burst_until <- 0.0
  end;
  e.window_count <- e.window_count + 1;
  if e.window_count > t.params.Params.burst_threshold then begin
    if s.burst_until = 0.0 then begin
      Metrics.incr t.c_bursts;
      if recording then
        Flight_recorder.prob ~at:(cycles t) ~ctx:e.id
          ~cause:Flight_recorder.Throttle ~from_p:s.prob
          ~to_p:t.params.Params.burst_prob
    end;
    s.burst_until <- s.window_start +. t.params.Params.burst_window_sec
  end;
  (* Reviving: a floor-bound context may be boosted after a while. *)
  if
    (not e.pinned) && at_floor t e
    && s.floor_since > 0.0
    && tnow -. s.floor_since > t.params.Params.revive_period_sec
    && Prng.below_percent t.rng 0.01
  then begin
    Metrics.incr t.c_revivals;
    let before = s.prob in
    s.prob <- t.params.Params.revive_prob;
    s.floor_since <- 0.0;
    if recording then note_prob t e Flight_recorder.Revive ~from_p:before
  end;
  e

let[@inline] effective_prob t e =
  if e.pinned then 1.0
  else if e.s.burst_until > 0.0 && now t < e.s.burst_until then
    t.params.Params.burst_prob
  else e.s.prob

let note_watched t (e : entry) =
  e.watches <- e.watches + 1;
  if not e.pinned then begin
    let before = e.s.prob in
    e.s.prob <- e.s.prob *. t.params.Params.watch_decay_factor;
    clamp_floor t e;
    if Flight_recorder.active () then
      note_prob t e Flight_recorder.Halve_on_watch ~from_p:before
  end

let pin t e =
  let before = e.s.prob in
  e.pinned <- true;
  e.s.prob <- 1.0;
  if Flight_recorder.active () then
    note_prob t e Flight_recorder.Pin ~from_p:before

let find t (site, off) =
  let id = Int_index.find t.st.index site off in
  if id < 0 then None else Some t.st.entries.(id)

let find_by_id t id = if id >= 0 && id < t.st.count then Some t.st.entries.(id) else None
let num_contexts t = t.st.count
let total_allocations t = Metrics.count t.c_allocations

let iter f t =
  for id = 0 to t.st.count - 1 do
    f t.st.entries.(id)
  done

let memory_bytes t =
  (charged_buckets * 8) + (t.st.count * ((4 * 8) + (10 * 8))) + (8 * t.st.bt.Alloc_ctx.len)
