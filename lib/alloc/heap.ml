exception Error of string

(* Everything the heap keeps per object and per free block, in flat int
   arrays and two {!Int_index} tables: a [malloc]/[free] pair allocates
   nothing on the OCaml heap and never calls the generic hash.

   Live objects sit in dense slots [0, count), one parallel array per
   field, and [index] maps an address to its slot; freeing an object moves
   the last slot into its hole and re-points that object's key.

   A small class's free list is a stack of freed blocks (linked nodes)
   over the unused rest of its last chunk ([fresh_next], [fresh_limit]):
   a freed block is reused before the chunk's next one, in the order a
   list refilled a chunk at a time and consed onto on [free] yields.  A
   large block size keeps a stack of freed blocks only, its top node in
   [large_head] while the stack is not empty.

   The store goes back to a domain-local spare at its grown size when the
   machine's memory is released, and the released heap points at a shared
   empty store. *)
type store = {
  mutable addr : int array;
  mutable req_size : int array;      (* size the caller asked for *)
  mutable block : int array;         (* bytes reserved *)
  mutable count : int;
  index : Int_index.t;               (* address -> slot *)
  small_head : int array;            (* per class: top freed node, or -1 *)
  fresh_next : int array;            (* per class: next unused chunk address *)
  fresh_limit : int array;           (* per class: end of the current chunk *)
  touched : int array;               (* classes ever refilled, first
                                        [n_touched] slots *)
  mutable n_touched : int;
  large_head : Int_index.t;          (* block granules -> top freed node *)
  mutable node_addr : int array;
  mutable node_next : int array;     (* next node down the stack, or -1 *)
  mutable node_top : int;            (* nodes ever handed out *)
  mutable node_free : int;           (* chain of returned nodes, or -1 *)
}

type t = {
  m : Machine.t;
  mutable s : store;
  c_mallocs : Metrics.counter;
  c_frees : Metrics.counter;
  g_live_bytes : Metrics.gauge;
  h_alloc_bytes : Metrics.histogram;
  mutable carved : int;                  (* bytes ever taken from sbrk *)
  mutable live_block_bytes : int;        (* block bytes currently backing live objects *)
  mutable peak_block_bytes : int;
}

(* A cold store is small: a heap that never grows it costs a few hundred
   words to build. *)
let initial_slots = 32

let fresh_store () =
  { addr = Array.make initial_slots 0;
    req_size = Array.make initial_slots 0;
    block = Array.make initial_slots 0;
    count = 0;
    index = Int_index.create initial_slots;
    small_head = Array.make Size_class.num_small_classes (-1);
    fresh_next = Array.make Size_class.num_small_classes 0;
    fresh_limit = Array.make Size_class.num_small_classes 0;
    touched = Array.make Size_class.num_small_classes 0;
    n_touched = 0;
    large_head = Int_index.create 8;
    node_addr = Array.make initial_slots 0;
    node_next = Array.make initial_slots 0;
    node_top = 0;
    node_free = -1 }

let grown a n = let b = Array.make n 0 in Array.blit a 0 b 0 (Array.length a); b

let grow_slots s =
  let n = 2 * Array.length s.addr in
  s.addr <- grown s.addr n;
  s.req_size <- grown s.req_size n;
  s.block <- grown s.block n

let add_object s ~addr ~req_size ~block =
  if s.count = Array.length s.addr then grow_slots s;
  let slot = s.count in
  s.addr.(slot) <- addr;
  s.req_size.(slot) <- req_size;
  s.block.(slot) <- block;
  s.count <- slot + 1;
  Int_index.add s.index addr 0 slot

(* Fill the hole [free] left at [slot] with the last slot's object. *)
let fill_hole s slot =
  let last = s.count - 1 in
  if slot <> last then begin
    Int_index.replace s.index s.addr.(last) 0 slot;
    s.addr.(slot) <- s.addr.(last);
    s.req_size.(slot) <- s.req_size.(last);
    s.block.(slot) <- s.block.(last)
  end;
  s.count <- last

(* ---- free-block stacks ---- *)

let push_node s addr next =
  let n =
    if s.node_free >= 0 then begin
      let n = s.node_free in
      s.node_free <- s.node_next.(n);
      n
    end
    else begin
      if s.node_top = Array.length s.node_addr then begin
        let len = 2 * s.node_top in
        s.node_addr <- grown s.node_addr len;
        s.node_next <- grown s.node_next len
      end;
      let n = s.node_top in
      s.node_top <- n + 1;
      n
    end
  in
  s.node_addr.(n) <- addr;
  s.node_next.(n) <- next;
  n

(* Pop node [n]: its address, with [n] returned to the spare nodes. *)
let drop_node s n =
  let addr = s.node_addr.(n) in
  s.node_next.(n) <- s.node_free;
  s.node_free <- n;
  addr

(* ---- recycling ---- *)

let spare_store : store Spare.t = Spare.create ()

(* What a released heap points at: it holds no object, and a lookup in
   its empty indexes finds none.  Nothing ever writes to it — the
   first block a released heap hands out gives it a store of its own
   ([take_block]). *)
let no_store =
  { addr = [||]; req_size = [||]; block = [||]; count = 0;
    index = Int_index.create 0; small_head = [||]; fresh_next = [||];
    fresh_limit = [||]; touched = [||]; n_touched = 0;
    large_head = Int_index.create 0; node_addr = [||]; node_next = [||];
    node_top = 0; node_free = -1 }

(* Empty [s] for its next heap, keeping every array at its grown size.
   Only the keys of objects still live, and the classes the execution
   refilled, are cleared: most executions free every object and use a
   few of the 256 classes. *)
let empty s =
  for slot = 0 to s.count - 1 do
    ignore (Int_index.remove s.index s.addr.(slot) 0)
  done;
  s.count <- 0;
  for i = 0 to s.n_touched - 1 do
    let c = s.touched.(i) in
    s.small_head.(c) <- -1;
    s.fresh_next.(c) <- 0;
    s.fresh_limit.(c) <- 0
  done;
  s.n_touched <- 0;
  Int_index.clear s.large_head;
  s.node_top <- 0;
  s.node_free <- -1

(* Hand the store to the next heap on this domain.  The released heap
   forgets its objects and free blocks (both leak, as when a process
   exits) and points at [no_store], so it stays usable without aliasing
   its successor's store and builds one only if it allocates again. *)
let recycle t =
  let s = t.s in
  t.s <- no_store;
  empty s;
  Spare.give spare_store s

let k_mallocs = Metrics.counter_key "heap.mallocs"
let k_frees = Metrics.counter_key "heap.frees"
let k_live_bytes = Metrics.gauge_key "heap.live_bytes"
let k_alloc_bytes = Metrics.histogram_key "heap.alloc_bytes"

let create m =
  let reg = Machine.registry m in
  let t =
    { m;
      s = Spare.take spare_store ~fresh:fresh_store;
      c_mallocs = Metrics.counter reg k_mallocs;
      c_frees = Metrics.counter reg k_frees;
      g_live_bytes = Metrics.gauge reg k_live_bytes;
      h_alloc_bytes = Metrics.histogram reg k_alloc_bytes;
      carved = 0;
      live_block_bytes = 0;
      peak_block_bytes = 0 }
  in
  Sparse_mem.on_release (Machine.mem m) (fun () -> recycle t);
  t

let machine t = t.m

(* Advance the break by [n] bytes, refusing to wrap past [max_int]. *)
let carve t n =
  if n > max_int - 15 - Machine.brk t.m then
    raise (Error (Printf.sprintf "out of address space: %d more bytes" n));
  t.carved <- t.carved + n;
  Machine.sbrk t.m n

(* Small classes are refilled a chunk at a time so that consecutive objects
   of one class are adjacent, as in a real segregated heap. *)
let chunk_bytes = 16384

let take_block t block =
  if t.s == no_store then t.s <- fresh_store ();
  let s = t.s in
  if block <= Size_class.max_class then begin
    let c = Size_class.small_index block in
    let top = s.small_head.(c) in
    if top >= 0 then begin
      s.small_head.(c) <- s.node_next.(top);
      drop_node s top
    end
    else begin
      if s.fresh_next.(c) >= s.fresh_limit.(c) then begin
        let n = max 1 (chunk_bytes / block) in
        let start = carve t (n * block) in
        if s.fresh_limit.(c) = 0 then begin
          s.touched.(s.n_touched) <- c;
          s.n_touched <- s.n_touched + 1
        end;
        s.fresh_next.(c) <- start;
        s.fresh_limit.(c) <- start + (n * block)
      end;
      let addr = s.fresh_next.(c) in
      s.fresh_next.(c) <- addr + block;
      addr
    end
  end
  else begin
    let key = block / Size_class.align in
    let top = Int_index.find s.large_head key 0 in
    if top >= 0 then begin
      let next = s.node_next.(top) in
      if next >= 0 then Int_index.replace s.large_head key 0 next
      else ignore (Int_index.remove s.large_head key 0);
      drop_node s top
    end
    else carve t block
  end

let return_block t block addr =
  let s = t.s in
  if block <= Size_class.max_class then begin
    let c = Size_class.small_index block in
    s.small_head.(c) <- push_node s addr s.small_head.(c)
  end
  else begin
    let key = block / Size_class.align in
    let top = push_node s addr (Int_index.find s.large_head key 0) in
    Int_index.replace s.large_head key 0 top
  end

(* The allocation and free counts and the live bytes are the heap's
   instruments themselves: the gauge keeps its high watermark, the peak. *)
let add_live t n = Metrics.set t.g_live_bytes (Metrics.level t.g_live_bytes + n)

let malloc t size =
  if size < 0 then raise (Error "malloc: negative size");
  if size > Size_class.max_request then raise (Error "malloc: size overflows");
  Machine.work_as t.m Profiler.Alloc_fast Cost.malloc_base;
  let block = Size_class.block_bytes size in
  let addr = take_block t block in
  add_object t.s ~addr ~req_size:size ~block;
  Metrics.incr t.c_mallocs;
  Metrics.observe t.h_alloc_bytes size;
  add_live t size;
  t.live_block_bytes <- t.live_block_bytes + block;
  if t.live_block_bytes > t.peak_block_bytes then
    t.peak_block_bytes <- t.live_block_bytes;
  addr

let free t addr =
  Machine.work_as t.m Profiler.Alloc_fast Cost.malloc_base;
  let s = t.s in
  let slot = Int_index.remove s.index addr 0 in
  if slot < 0 then begin
    if addr = 0 then () (* free(NULL) is a no-op *)
    else raise (Error (Printf.sprintf "free: invalid or already-freed pointer 0x%x" addr))
  end
  else begin
    let req_size = s.req_size.(slot) and block = s.block.(slot) in
    fill_hole s slot;
    Metrics.incr t.c_frees;
    add_live t (-req_size);
    t.live_block_bytes <- t.live_block_bytes - block;
    return_block t block addr
  end

let size_of t addr =
  let s = t.s in
  let slot = Int_index.find s.index addr 0 in
  if slot < 0 then None else Some s.req_size.(slot)

let is_live t addr = Int_index.find t.s.index addr 0 >= 0

let usable_size t addr =
  let s = t.s in
  let slot = Int_index.find s.index addr 0 in
  if slot < 0 then None else Some s.block.(slot)

(* Slot order: allocation order, but for the moves [free] makes. *)
let iter_live f t =
  let s = t.s in
  for slot = 0 to s.count - 1 do
    f ~addr:s.addr.(slot) ~size:s.req_size.(slot)
  done

let live_objects t = t.s.count
let live_bytes t = Metrics.level t.g_live_bytes
let peak_live_bytes t = Metrics.high_watermark t.g_live_bytes
let total_allocs t = Metrics.count t.c_mallocs
let total_frees t = Metrics.count t.c_frees

let resident_bytes t =
  (* Peak block bytes backing live objects, plus allocator metadata: 4
     words per live object, a real allocator's chunk header (not this
     table's own columns).  Free-list slack is reusable address space, not
     resident pages: untouched sparse memory costs nothing, mirroring how
     VmHWM sees an mmap-backed allocator. *)
  t.peak_block_bytes + (t.s.count * 4 * 8)
