let header_size = 32
let canary_size = 8
let identifier = 0x43534F44 (* "CSOD" *)

let rounded size = (size + 7) land lnot 7

let padded_request ~evidence size =
  rounded size + canary_size + if evidence then header_size else 0

let app_ptr ~evidence ~base = if evidence then base + header_size else base
let base_ptr ~evidence ~app = if evidence then app - header_size else app

let boundary_addr ~app ~size = app + rounded size

let k_plants = Metrics.counter_key "canary.plants"
let k_checks = Metrics.counter_key "canary.checks"

(* Stands for a counter not yet resolved: defining the two with the
   runtime would list them, at zero, for executions that never plant. *)
let unresolved = Metrics.counter (Metrics.create ()) k_plants

type t = {
  machine : Machine.t;
  mem : Sparse_mem.t;
  value : int64;
  (* The last header read: its four words, at [free] and at the exit
     sweep, into one buffer. *)
  h : int array;
  mutable app : int;
  mutable tail : int; (* [read_frame]'s verdict on that object's canary *)
  mutable plants : Metrics.counter;
  mutable checks : Metrics.counter;
}

let create m value =
  { machine = m;
    mem = Machine.mem m;
    value;
    h = Array.make 4 0;
    app = 0;
    tail = Sparse_mem.tail_unread;
    plants = unresolved;
    checks = unresolved }

let resolve t k = Metrics.counter (Machine.registry t.machine) k

let plant t ~base ~size ~ctx_id =
  if t.plants == unresolved then t.plants <- resolve t k_plants;
  Metrics.incr t.plants;
  Machine.work_as t.machine Profiler.Canary_plant Cost.canary_plant;
  (* RealObjectPtr | ObjectSize | CallingContextPtr | Identifier, and the
     canary at the boundary *)
  Sparse_mem.write_frame t.mem base base size ctx_id identifier t.value;
  base + header_size

let checks m =
  Option.value ~default:0 (Metrics.find_count (Machine.registry m) k_checks)

let read_header t ~app =
  let base = app - header_size in
  base >= 0
  && begin
    t.app <- app;
    t.tail <- Sparse_mem.read_frame t.mem base t.h t.value;
    t.h.(3) = identifier
  end

let check t =
  if t.checks == unresolved then t.checks <- resolve t k_checks;
  Metrics.incr t.checks;
  Machine.work_as t.machine Profiler.Canary_check Cost.canary_check;
  let app = t.app in
  let ok =
    if t.tail = Sparse_mem.tail_unread then
      Sparse_mem.equal_u64 t.mem (boundary_addr ~app ~size:t.h.(1)) t.value
    else t.tail = 1
  in
  Flight_recorder.canary_check ~at:(Clock.cycles (Machine.clock t.machine)) ~addr:app ~ok;
  ok

let[@inline] real_base t = t.h.(0)
let[@inline] object_size t = t.h.(1)
let[@inline] context_id t = t.h.(2)
