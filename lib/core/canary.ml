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
  (* RealObjectPtr | ObjectSize | CallingContextPtr | Identifier *)
  Sparse_mem.write_int4 mem base base size ctx_id identifier;
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

type header = int array

let header () = Array.make 4 0

(* The four words in one span, into the caller's buffer: the free path
   and the exit sweep read a header per object and allocate nothing. *)
let read_header m ~app h =
  let base = app - header_size in
  base >= 0
  && begin
    Sparse_mem.read_ints (Machine.mem m) base h;
    h.(3) = identifier
  end

let[@inline] real_base (h : header) = h.(0)
let[@inline] object_size (h : header) = h.(1)
let[@inline] context_id (h : header) = h.(2)
