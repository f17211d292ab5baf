let header_size = 32
let canary_size = 8
let identifier = 0x43534F44 (* "CSOD" *)

let rounded size = (size + 7) land lnot 7

let padded_request ~evidence size =
  rounded size + canary_size + if evidence then header_size else 0

let app_ptr ~evidence ~base = if evidence then base + header_size else base
let base_ptr ~evidence ~app = if evidence then app - header_size else app

let boundary_addr ~app ~size = app + rounded size

(* Looked up by key on every plant and check, an array index: defining
   them with the runtime would list them, at zero, for executions that
   never plant. *)
let k_plants = Metrics.counter_key "canary.plants"
let k_checks = Metrics.counter_key "canary.checks"

let plant m ~base ~size ~ctx_id ~canary =
  Metrics.incr (Metrics.counter (Machine.registry m) k_plants);
  Machine.work_as m Profiler.Canary_plant Cost.canary_plant;
  let app = base + header_size in
  let mem = Machine.mem m in
  Sparse_mem.write_int mem base base; (* RealObjectPtr *)
  Sparse_mem.write_int mem (base + 8) size; (* ObjectSize *)
  Sparse_mem.write_int mem (base + 16) ctx_id; (* CallingContextPtr *)
  Sparse_mem.write_int mem (base + 24) identifier;
  Sparse_mem.write_u64 mem (boundary_addr ~app ~size) canary;
  app

let checks m =
  Option.value ~default:0 (Metrics.find_count (Machine.registry m) k_checks)

let check m ~app ~size ~expected =
  Metrics.incr (Metrics.counter (Machine.registry m) k_checks);
  Machine.work_as m Profiler.Canary_check Cost.canary_check;
  let ok = Sparse_mem.equal_u64 (Machine.mem m) (boundary_addr ~app ~size) expected in
  Flight_recorder.canary_check ~at:(Clock.cycles (Machine.clock m)) ~addr:app ~ok;
  ok

(* Header fields are read one [int] at a time so the free path, which
   needs all three, allocates no tuple or option to get them. *)
let has_header m ~app =
  let base = app - header_size in
  base >= 0 && Sparse_mem.read_int (Machine.mem m) (base + 24) = identifier

let field m ~app k = Sparse_mem.read_int (Machine.mem m) (app - header_size + (8 * k))
let real_base m ~app = field m ~app 0
let object_size m ~app = field m ~app 1
let context_id m ~app = field m ~app 2

let read_header m ~app =
  if has_header m ~app then
    Some (real_base m ~app, object_size m ~app, context_id m ~app)
  else None
