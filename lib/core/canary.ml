let header_size = 32
let canary_size = 8
let identifier = 0x43534F44 (* "CSOD" *)

let rounded size = (size + 7) land lnot 7

let padded_request ~evidence size =
  rounded size + canary_size + if evidence then header_size else 0

let app_ptr ~evidence ~base = if evidence then base + header_size else base
let base_ptr ~evidence ~app = if evidence then app - header_size else app

let boundary_addr ~app ~size = app + rounded size

(* Per-domain single-entry cache of the plant/check counters: resolving a
   counter is a string-keyed registry probe, too expensive to repeat on
   every allocation.  Keyed by physical equality on the registry so
   machines from different executions never see each other's counters. *)
type hot_counters = {
  reg : Metrics.t;
  plants : Metrics.counter;
  checks : Metrics.counter;
}

let hot_key : hot_counters option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let hot m =
  let reg = Machine.registry m in
  let cache = Domain.DLS.get hot_key in
  match !cache with
  | Some h when h.reg == reg -> h
  | _ ->
    let h =
      { reg;
        plants = Metrics.counter reg "canary.plants";
        checks = Metrics.counter reg "canary.checks" }
    in
    cache := Some h;
    h

let plant m ~base ~size ~ctx_id ~canary =
  Metrics.incr (hot m).plants;
  Machine.work_as m Profiler.Canary_plant Cost.canary_plant;
  let app = base + header_size in
  let mem = Machine.mem m in
  Sparse_mem.write_int mem base base; (* RealObjectPtr *)
  Sparse_mem.write_int mem (base + 8) size; (* ObjectSize *)
  Sparse_mem.write_int mem (base + 16) ctx_id; (* CallingContextPtr *)
  Sparse_mem.write_int mem (base + 24) identifier;
  Sparse_mem.write_u64 mem (boundary_addr ~app ~size) canary;
  app

let check m ~app ~size ~expected =
  Metrics.incr (hot m).checks;
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
