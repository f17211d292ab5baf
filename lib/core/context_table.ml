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

type t = {
  params : Params.t;
  machine : Machine.t;
  rng : Prng.t;
  mutable table : (Alloc_ctx.key, entry) Chained_table.t;
  mutable by_id : (int, entry) Hashtbl.t;
  (* Every context's full backtrace, innermost first, one after another:
     written once on first sight, read only to build a report. *)
  mutable bt : int array;
  mutable bt_top : int;
  c_allocations : Metrics.counter;
  c_bursts : Metrics.counter;
  c_revivals : Metrics.counter;
  g_contexts : Metrics.gauge;
  mutable next_id : int;
  mutable allocations : int;
  mutable watches : int;
  (* Direct-mapped memo of recently used contexts, indexed by a hash of
     the (call site, stack offset) pair: a hit skips the key tuple, the
     table probe and the insertion closure, so it allocates nothing.
     Entries are never removed from the table, and a released table
     swaps in a new memo with its new table, so the memo can never go
     stale. *)
  mutable memo : entry array;
}

let memo_slots = 256

(* Fills empty memo slots; its key matches no context. *)
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

let memo_index callsite offset =
  (((callsite * 0x9E3779B1) lxor (offset * 0x85EBCA77)) lsr 20)
  land (memo_slots - 1)

(* The paper sizes the table "to a large number" up front, and Table V
   charges all 2,048 buckets, so the table never grows; it is recycled
   through a domain-local spare instead of being built in the major heap
   for every execution, together with the backtrace buffer at whatever
   size the last table grew it to. *)
let buckets = 2048
let bt_slots = 1024
let spare_tables :
    ((Alloc_ctx.key, entry) Chained_table.t * int array) Spare.t =
  Spare.create ()

let fresh_table ~buckets =
  Chained_table.create ~buckets ~hash:Alloc_ctx.hash_key ~equal:Alloc_ctx.equal_key ()

(* Hand the buckets and the backtrace buffer to the next table on this
   domain.  The released table keeps a small table and an empty buffer of
   its own and forgets its contexts, so it stays usable without aliasing
   its successor's.  Its id index and memo are replaced rather than
   emptied: overwriting a major-heap pointer costs a write barrier, and
   these are small enough to rebuild in the minor heap. *)
let recycle t =
  let tbl = t.table and bt = t.bt in
  t.table <- fresh_table ~buckets:16;
  t.by_id <- Hashtbl.create 16;
  t.memo <- Array.make memo_slots no_entry;
  t.bt <- [||];
  t.bt_top <- 0;
  Chained_table.clear tbl;
  Spare.give spare_tables (tbl, bt)

let create ~params ~machine ~rng =
  let reg = Machine.registry machine in
  let table, bt =
    Spare.take spare_tables ~fresh:(fun () ->
        (fresh_table ~buckets, Array.make bt_slots 0))
  in
  let t =
    { params;
      machine;
      rng;
      table;
      by_id = Hashtbl.create 256;
      bt;
      bt_top = 0;
      c_allocations = Metrics.counter reg "smu.allocations";
      c_bursts = Metrics.counter reg "smu.burst_throttles";
      c_revivals = Metrics.counter reg "smu.revivals";
      g_contexts = Metrics.gauge reg "smu.contexts";
      next_id = 0;
      allocations = 0;
      watches = 0;
      memo = Array.make memo_slots no_entry }
  in
  Sparse_mem.on_release (Machine.mem machine) (fun () -> recycle t);
  t

(* [Clock.seconds], computed here: a [float] returned from another module
   is boxed, and the allocation path reads the time on every call. *)
let[@inline] now t =
  float_of_int (Clock.cycles (Machine.clock t.machine))
  /. float_of_int Cost.cycles_per_second

let cycles t = Clock.cycles (Machine.clock t.machine)
let prob e = e.s.prob

(* Flight-recorder hook for one probability transition; skipped entirely
   (and the no-change case suppressed) when no recorder is installed. *)
let note_prob t (e : entry) cause ~from_p =
  if from_p <> e.s.prob then
    Flight_recorder.prob ~at:(cycles t) ~ctx:e.id ~cause ~from_p ~to_p:e.s.prob

let at_floor t e = e.s.prob <= t.params.Params.min_prob +. 1e-12

let clamp_floor t e =
  if e.s.prob < t.params.Params.min_prob then begin
    e.s.prob <- t.params.Params.min_prob;
    if e.s.floor_since = 0.0 then e.s.floor_since <- now t
  end

(* Append [frames] to the backtrace buffer, doubling it when full. *)
let store_backtrace t frames =
  let off = t.bt_top in
  let len = List.length frames in
  if off + len > Array.length t.bt then begin
    let cap = ref (max bt_slots (Array.length t.bt)) in
    while off + len > !cap do cap := 2 * !cap done;
    let arr = Array.make !cap 0 in
    Array.blit t.bt 0 arr 0 off;
    t.bt <- arr
  end;
  List.iteri (fun i pc -> Array.unsafe_set t.bt (off + i) pc) frames;
  t.bt_top <- off + len;
  len

let fresh_entry t (ctx : Alloc_ctx.t) =
  (* First sight of this context: the paper acquires the whole calling
     context once, with the expensive backtrace walk. *)
  let bt_off = t.bt_top in
  let bt_len = store_backtrace t (ctx.Alloc_ctx.backtrace ()) in
  let id = t.next_id in
  t.next_id <- id + 1;
  { id;
    key = Alloc_ctx.key ctx;
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
    bt_len }

let full_ctx t e =
  let rec go i acc = if i < e.bt_off then acc else go (i - 1) (t.bt.(i) :: acc) in
  go (e.bt_off + e.bt_len - 1) []

let on_allocation t ctx =
  Machine.work_as t.machine Profiler.Smu_lookup Cost.context_lookup;
  let callsite = ctx.Alloc_ctx.callsite and offset = ctx.Alloc_ctx.stack_offset in
  let slot = memo_index callsite offset in
  let cached = t.memo.(slot) in
  let e =
    let kc, ko = cached.key in
    if kc = callsite && ko = offset then cached
    else begin
      let e =
        Chained_table.find_or_add t.table (Alloc_ctx.key ctx) ~default:(fun () ->
            let e = fresh_entry t ctx in
            Hashtbl.replace t.by_id e.id e;
            e)
      in
      t.memo.(slot) <- e;
      e
    end
  in
  if e.allocs = 0 then Metrics.set t.g_contexts (Chained_table.length t.table);
  t.allocations <- t.allocations + 1;
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

let effective_prob t e =
  if e.pinned then 1.0
  else if e.s.burst_until > 0.0 && now t < e.s.burst_until then
    t.params.Params.burst_prob
  else e.s.prob

let note_watched t (e : entry) =
  t.watches <- t.watches + 1;
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

let find t key = Chained_table.find t.table key
let find_by_id t id = Hashtbl.find_opt t.by_id id
let num_contexts t = Chained_table.length t.table
let total_allocations t = t.allocations
let total_watches t = t.watches
let iter f t = Chained_table.iter (fun _ e -> f e) t.table

let memory_bytes t =
  Chained_table.memory_bytes t.table
  + Chained_table.fold (fun _ e acc -> acc + (10 * 8) + (8 * e.bt_len)) t.table 0
