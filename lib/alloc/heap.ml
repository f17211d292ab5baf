exception Error of string

(* Everything the heap keeps per object and per free block, in flat
   arrays: a [malloc]/[free] pair allocates nothing on the OCaml heap and
   never calls the generic hash.

   Live objects sit in dense slots [0, count), one parallel array per
   field; freeing an object moves the last slot into its hole.

   A granule page map finds an object's slot from its address.  The break
   grows from [Machine.heap_base] in 16-byte steps and only this heap
   carves it, so an object starts on granule [(addr - heap_base) lsr 4].
   A page of 1,024 granules (16 KiB) that holds an object start owns a
   table of [slot + 1] per granule, 0 where no object starts; a page that
   holds none reads [zero_page], which is never written.  Pages in the
   first 256 MiB of the break are found in [top], a dense array grown by
   doubling; a page past it is found through [far] (page -> its index in
   [pages]), so memory stays proportional to the pages that hold objects
   however far the break reaches.  A lookup in the window is two loads,
   and a store updates the second.

   A small class's free list is a stack of freed blocks (linked nodes)
   over the unused rest of its last chunk ([fresh_next], [fresh_limit]):
   a freed block is reused before the chunk's next one, in the order a
   list refilled a chunk at a time and consed onto on [free] yields.  A
   large block size keeps a stack of freed blocks only, its top node in
   [large_head] while the stack is not empty.

   The store goes back to a domain-local spare at its grown size when the
   machine's memory is released, its page tables with it, and the
   released heap points at a shared empty store. *)
type store = {
  mutable addr : int array;
  mutable req_size : int array;      (* size the caller asked for *)
  mutable block : int array;         (* bytes reserved *)
  mutable count : int;
  mutable top : Bytes.t array;       (* page in the window -> its table *)
  far : Int_index.t;                 (* page past [top]'s window -> index
                                        in [pages] *)
  mutable pages : Bytes.t array;     (* page tables, the first [n_pages]
                                        in use *)
  mutable page_no : int array;       (* the page each one is in use for *)
  mutable n_pages : int;
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

let page_bits = 10
let page_granules = 1 lsl page_bits
let page_mask = page_granules - 1

(* [top] covers at most this many pages: 256 MiB of break, a 128 KiB
   array. *)
let dense_pages = 1 lsl 14

(* A page's table holds one 32-bit [slot + 1] per granule: 4 KiB, which
   the collector never scans.  With 64 KiB pages, stream-alloc's peak RSS
   rose 5% (8% with [int] arrays) against 1% now: each of its streams
   ends with part of its last page unused. *)
let zero_page = Bytes.make (4 * page_granules) '\000'

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let get_granule a i = Int32.to_int (get32 a (i lsl 2))
let set_granule a i v = set32 a (i lsl 2) (Int32.of_int v)

(* A cold store is small: a heap that never grows it costs a few hundred
   words to build, and its first object builds its first page table. *)
let initial_slots = 32

let fresh_store () =
  { addr = Array.make initial_slots 0;
    req_size = Array.make initial_slots 0;
    block = Array.make initial_slots 0;
    count = 0;
    top = Array.make 16 zero_page;
    far = Int_index.create 4;
    pages = Array.make 4 zero_page;
    page_no = Array.make 4 0;
    n_pages = 0;
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

(* ---- the granule page map ---- *)

let table_of s p =
  if p < Array.length s.top then Array.unsafe_get s.top p
  else begin
    let k = Int_index.find s.far p 0 in
    if k < 0 then zero_page else s.pages.(k)
  end

(* The granule of [addr] relative to the heap base, or -1 where no object
   can start. *)
let granule addr =
  if addr < Machine.heap_base || addr land (Size_class.align - 1) <> 0 then -1
  else (addr - Machine.heap_base) lsr 4

(* The slot of the object starting at [addr], or -1.  Every page table,
   [zero_page] included, holds [page_granules] entries. *)
let find_slot s addr =
  let g = granule addr in
  if g < 0 then -1
  else get_granule (table_of s (g lsr page_bits)) (g land page_mask) - 1

(* A table for page [p], which holds no object yet: the next one the
   store has in hand, or a new one. *)
let new_page s p =
  let k = s.n_pages in
  if k = Array.length s.pages then begin
    let n = 2 * k in
    let pages = Array.make n zero_page in
    Array.blit s.pages 0 pages 0 k;
    s.pages <- pages;
    s.page_no <- grown s.page_no n
  end;
  if s.pages.(k) == zero_page then s.pages.(k) <- Bytes.make (4 * page_granules) '\000';
  let g = s.pages.(k) in
  s.page_no.(k) <- p;
  s.n_pages <- k + 1;
  if p < dense_pages then begin
    let len = Array.length s.top in
    if p >= len then begin
      let n = ref (max 16 (2 * len)) in
      while p >= !n do n := 2 * !n done;
      let top = Array.make !n zero_page in
      Array.blit s.top 0 top 0 len;
      s.top <- top
    end;
    s.top.(p) <- g
  end
  else Int_index.add s.far p 0 k;
  g

(* Point the granule of live object [addr] at [slot]. *)
let set_slot s addr slot =
  let g = (addr - Machine.heap_base) lsr 4 in
  let p = g lsr page_bits in
  let a = table_of s p in
  let a = if a == zero_page then new_page s p else a in
  set_granule a (g land page_mask) (slot + 1)

(* The slot of the object starting at [addr], its granule cleared, or -1
   when none starts there. *)
let remove_slot s addr =
  let g = granule addr in
  if g < 0 then -1
  else begin
    let a = table_of s (g lsr page_bits) and i = g land page_mask in
    let v = get_granule a i in
    (* [v > 0]: [a] is not [zero_page]. *)
    if v > 0 then set_granule a i 0;
    v - 1
  end

(* ---- live objects ---- *)

let add_object s ~addr ~req_size ~block =
  if s.count = Array.length s.addr then grow_slots s;
  let slot = s.count in
  s.addr.(slot) <- addr;
  s.req_size.(slot) <- req_size;
  s.block.(slot) <- block;
  s.count <- slot + 1;
  set_slot s addr slot

(* Fill the hole [free] left at [slot] with the last slot's object. *)
let fill_hole s slot =
  let last = s.count - 1 in
  if slot <> last then begin
    set_slot s s.addr.(last) slot;
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
   its empty page map finds none.  Nothing ever writes to it — the
   first block a released heap hands out gives it a store of its own
   ([take_block]). *)
let no_store =
  { addr = [||]; req_size = [||]; block = [||]; count = 0; top = [||];
    far = Int_index.create 0; pages = [||]; page_no = [||]; n_pages = 0;
    small_head = [||]; fresh_next = [||]; fresh_limit = [||]; touched = [||];
    n_touched = 0;
    large_head = Int_index.create 0; node_addr = [||]; node_next = [||];
    node_top = 0; node_free = -1 }

(* Empty [s] for its next heap, keeping every array at its grown size.
   Only the granules of objects still live, the pages the execution used
   and the classes it refilled are cleared: most executions free every
   object and use a few of the 256 classes.  The page tables stay in
   [pages], all zero, for the next heap to hand out. *)
let empty s =
  for slot = 0 to s.count - 1 do
    ignore (remove_slot s s.addr.(slot))
  done;
  s.count <- 0;
  for k = 0 to s.n_pages - 1 do
    let p = s.page_no.(k) in
    if p < dense_pages then s.top.(p) <- zero_page
  done;
  s.n_pages <- 0;
  Int_index.clear s.far;
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
  let slot = remove_slot s addr in
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
  let slot = find_slot s addr in
  if slot < 0 then None else Some s.req_size.(slot)

let is_live t addr = find_slot t.s addr >= 0

let usable_size t addr =
  let s = t.s in
  let slot = find_slot s addr in
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
