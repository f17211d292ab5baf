

exception Error of string

type obj = {
  req_size : int;        (* size the caller asked for *)
  block : int;           (* bytes reserved *)
  base : int;            (* base of the underlying block (differs from the
                            object address for memalign interior pointers) *)
  cls : Size_class.t;
}

(* Keyed by address, with the generic table's own hash: the same bucket
   for every key, so [iter_live] visits objects in the same order, but
   lookups compare ints directly instead of calling [compare]. *)
module Objects = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = {
  m : Machine.t;
  small_free : int list array;           (* per-class free lists *)
  large_free : (int, int list) Hashtbl.t; (* block size -> free addrs *)
  mutable objects : obj Objects.t;       (* live objects by address *)
  c_mallocs : Metrics.counter;
  c_frees : Metrics.counter;
  g_live_bytes : Metrics.gauge;
  h_alloc_bytes : Metrics.histogram;
  mutable carved : int;                  (* bytes ever taken from sbrk *)
  mutable live_bytes : int;
  mutable peak_live : int;
  mutable live_block_bytes : int;        (* block bytes currently backing live objects *)
  mutable peak_block_bytes : int;
  mutable allocs : int;
  mutable frees : int;
}

(* The object table is sized for the largest run and is 4,097 words, so
   it is recycled through a domain-local spare instead of being built in
   the major heap for every execution. *)
let objects_slots = 4096
let spare_objects : obj Objects.t Spare.t = Spare.create ()

(* Hand the object table to the next heap on this domain.  [reset], not
   [clear]: a table that grew must shrink back to [objects_slots], since
   the bucket count decides [iter_live]'s order.  The released heap keeps
   a small table of its own, so it stays usable without aliasing its
   successor's. *)
let recycle t =
  let tbl = t.objects in
  t.objects <- Objects.create 16;
  Objects.reset tbl;
  Spare.give spare_objects tbl

let create m =
  let reg = Machine.registry m in
  let t =
    { m;
      small_free = Array.make Size_class.num_small_classes [];
      large_free = Hashtbl.create 32;
      objects =
        Spare.take spare_objects ~fresh:(fun () -> Objects.create objects_slots);
      c_mallocs = Metrics.counter reg "heap.mallocs";
      c_frees = Metrics.counter reg "heap.frees";
      g_live_bytes = Metrics.gauge reg "heap.live_bytes";
      h_alloc_bytes = Metrics.histogram reg "heap.alloc_bytes";
      carved = 0;
      live_bytes = 0;
      peak_live = 0;
      live_block_bytes = 0;
      peak_block_bytes = 0;
      allocs = 0;
      frees = 0 }
  in
  Sparse_mem.on_release (Machine.mem m) (fun () -> recycle t);
  t

let machine t = t.m

(* Small classes are refilled a chunk at a time so that consecutive objects
   of one class are adjacent, as in a real segregated heap. *)
let chunk_bytes = 16384

let refill_small t idx block =
  let n = max 1 (chunk_bytes / block) in
  let start = Machine.sbrk t.m (n * block) in
  t.carved <- t.carved + (n * block);
  let rec push i acc = if i < 0 then acc else push (i - 1) (start + (i * block) :: acc) in
  t.small_free.(idx) <- push (n - 1) [] @ t.small_free.(idx)

let take_block t cls =
  match cls with
  | Size_class.Small block ->
    let idx = Size_class.small_index block in
    (match t.small_free.(idx) with
     | addr :: rest ->
       t.small_free.(idx) <- rest;
       addr
     | [] ->
       refill_small t idx block;
       (match t.small_free.(idx) with
        | addr :: rest ->
          t.small_free.(idx) <- rest;
          addr
        | [] -> assert false))
  | Size_class.Large block ->
    (match Hashtbl.find_opt t.large_free block with
     | Some (addr :: rest) ->
       Hashtbl.replace t.large_free block rest;
       addr
     | Some [] | None ->
       t.carved <- t.carved + block;
       Machine.sbrk t.m block)

let return_block t cls base =
  match cls with
  | Size_class.Small block ->
    let idx = Size_class.small_index block in
    t.small_free.(idx) <- base :: t.small_free.(idx)
  | Size_class.Large block ->
    let prev = Option.value ~default:[] (Hashtbl.find_opt t.large_free block) in
    Hashtbl.replace t.large_free block (base :: prev)

let register t ~addr ~base ~req_size ~cls =
  let block = Size_class.block_size cls in
  Objects.replace t.objects addr { req_size; block; base; cls };
  t.allocs <- t.allocs + 1;
  Metrics.incr t.c_mallocs;
  Metrics.observe t.h_alloc_bytes req_size;
  t.live_bytes <- t.live_bytes + req_size;
  if t.live_bytes > t.peak_live then t.peak_live <- t.live_bytes;
  Metrics.set t.g_live_bytes t.live_bytes;
  t.live_block_bytes <- t.live_block_bytes + block;
  if t.live_block_bytes > t.peak_block_bytes then
    t.peak_block_bytes <- t.live_block_bytes

let malloc t size =
  if size < 0 then raise (Error "malloc: negative size");
  Machine.work_as t.m Profiler.Alloc_fast Cost.malloc_base;
  let cls = Size_class.classify size in
  let addr = take_block t cls in
  register t ~addr ~base:addr ~req_size:size ~cls;
  addr

let free t addr =
  Machine.work_as t.m Profiler.Alloc_fast Cost.malloc_base;
  match Objects.find t.objects addr with
  | exception Not_found ->
    if addr = 0 then () (* free(NULL) is a no-op *)
    else raise (Error (Printf.sprintf "free: invalid or already-freed pointer 0x%x" addr))
  | obj ->
    Objects.remove t.objects addr;
    t.frees <- t.frees + 1;
    Metrics.incr t.c_frees;
    t.live_bytes <- t.live_bytes - obj.req_size;
    Metrics.set t.g_live_bytes t.live_bytes;
    t.live_block_bytes <- t.live_block_bytes - obj.block;
    return_block t obj.cls obj.base

let calloc t ~count ~size =
  if count < 0 || size < 0 then raise (Error "calloc: negative argument");
  if size > 0 && count > max_int / size then
    raise (Error "calloc: count * size overflows");
  let total = count * size in
  let addr = malloc t total in
  Sparse_mem.fill (Machine.mem t.m) addr total 0;
  addr

let realloc t ptr size =
  if size < 0 then raise (Error "realloc: negative size");
  if ptr = 0 then malloc t size
  else if size = 0 then begin
    free t ptr;
    0
  end
  else
    match Objects.find_opt t.objects ptr with
    | None -> raise (Error (Printf.sprintf "realloc: invalid pointer 0x%x" ptr))
    | Some obj ->
      if size <= obj.block - (ptr - obj.base) then begin
        (* Shrink or grow within the existing block: update bookkeeping. *)
        t.live_bytes <- t.live_bytes - obj.req_size + size;
        if t.live_bytes > t.peak_live then t.peak_live <- t.live_bytes;
        Metrics.set t.g_live_bytes t.live_bytes;
        Objects.replace t.objects ptr { obj with req_size = size };
        ptr
      end
      else begin
        let fresh = malloc t size in
        let mem = Machine.mem t.m in
        let copy = min obj.req_size size in
        for i = 0 to copy - 1 do
          Sparse_mem.write_u8 mem (fresh + i) (Sparse_mem.read_u8 mem (ptr + i))
        done;
        free t ptr;
        fresh
      end

let memalign t ~alignment ~size =
  if alignment <= 0 || alignment land (alignment - 1) <> 0 then
    raise (Error "memalign: alignment must be a positive power of two");
  if alignment > 4096 then raise (Error "memalign: alignment too large");
  if alignment <= Size_class.align then malloc t size
  else begin
    Machine.work_as t.m Profiler.Alloc_fast Cost.malloc_base;
    let cls = Size_class.classify (size + alignment) in
    let base = take_block t cls in
    let addr = (base + alignment - 1) / alignment * alignment in
    register t ~addr ~base ~req_size:size ~cls;
    addr
  end

let size_of t addr =
  Option.map (fun o -> o.req_size) (Objects.find_opt t.objects addr)

let is_live t addr = Objects.mem t.objects addr

let usable_size t addr =
  Option.map (fun o -> o.block - (addr - o.base)) (Objects.find_opt t.objects addr)

(* An empty table is not scanned: most executions free every object, and
   the scan of 4,096 empty buckets was all of their termination handling. *)
let iter_live f t =
  if Objects.length t.objects > 0 then
    Objects.iter (fun addr o -> f ~addr ~size:o.req_size) t.objects

let live_objects t = Objects.length t.objects
let live_bytes t = t.live_bytes
let peak_live_bytes t = t.peak_live
let total_allocs t = t.allocs
let total_frees t = t.frees

let resident_bytes t =
  (* Peak block bytes backing live objects, plus object-table metadata
     (4 words per entry).  Free-list slack is reusable address space, not
     resident pages: untouched sparse memory costs nothing, mirroring how
     VmHWM sees an mmap-backed allocator. *)
  t.peak_block_bytes + (Objects.length t.objects * 4 * 8)
