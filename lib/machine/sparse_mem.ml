type addr = int

let chunk_size = 65536

(* Each chunk's storage carries a 16-byte trailer past its [chunk_size]
   bytes: the offsets [lo, hi) of the bytes written while it was live
   (empty when [lo >= hi]).  Reads never look at it. *)
let extent_lo = chunk_size
let extent_hi = chunk_size + 8

let[@inline] stored_extent b at = Int64.to_int (Bytes.get_int64_le b at)
let[@inline] store_extent b at v = Bytes.set_int64_le b at (Int64.of_int v)

let set_empty_extent b =
  store_extent b extent_lo chunk_size;
  store_extent b extent_hi 0

(* Domain-local page pool: executions are short-lived but plentiful (the
   fleet simulator runs thousands per domain), so recycling chunk storage
   across machines removes the dominant per-execution GC load.  A reused
   page is zeroed over the extent its last owner wrote, making it
   indistinguishable from a fresh one.  The pool is per-domain, so fleet
   workers never contend. *)
let max_pooled_pages = 512

let pool_key : Bytes.t list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let fresh_page () =
  let pool = Domain.DLS.get pool_key in
  match !pool with
  | [] ->
    let b = Bytes.make (chunk_size + 16) '\000' in
    set_empty_extent b;
    b
  | b :: rest ->
    pool := rest;
    let lo = stored_extent b extent_lo and hi = stored_extent b extent_hi in
    if hi > lo then Bytes.fill b lo (hi - lo) '\000';
    set_empty_extent b;
    b

(* The chunks touched sit in [pages.(0 .. n_pages - 1)], and [index] maps
   a chunk number to its position there. *)
type t = {
  index : Int_index.t;
  mutable pages : Bytes.t array;
  mutable n_pages : int;
  (* One-entry direct-mapped cache of the last chunk touched: interpreter
     traffic is overwhelmingly sequential or loop-local, so most accesses
     hit the same 64K chunk as their predecessor and skip the index. *)
  mutable cache_idx : int;
  mutable cache_chunk : Bytes.t;
  (* The cached chunk's written extent, kept here so a write updates two
     fields of [t]; it goes to the chunk's trailer when the cache moves
     on, and comes from there when the cache takes a chunk. *)
  mutable cache_lo : int;
  mutable cache_hi : int;
  mutable released : bool;
  mutable on_release : (unit -> unit) list; (* newest first *)
}

let no_chunk = Bytes.create 0

(* Most executions touch a handful of chunks: small tables are cheap to
   build and to sweep on release, and double as needed. *)
let initial_pages = 4

let create () =
  { index = Int_index.create initial_pages;
    pages = Array.make initial_pages no_chunk;
    n_pages = 0;
    cache_idx = -1;
    cache_chunk = no_chunk;
    cache_lo = chunk_size;
    cache_hi = 0;
    released = false;
    on_release = [] }

let on_release t f = if not t.released then t.on_release <- f :: t.on_release

(* Point the cache at chunk [idx] (storage [b], or [no_chunk]), handing
   the extent of the chunk it leaves back to that chunk's trailer. *)
let set_cache t idx b =
  let old = t.cache_chunk in
  if old != no_chunk then begin
    store_extent old extent_lo t.cache_lo;
    store_extent old extent_hi t.cache_hi
  end;
  t.cache_idx <- idx;
  t.cache_chunk <- b;
  if b != no_chunk then begin
    t.cache_lo <- stored_extent b extent_lo;
    t.cache_hi <- stored_extent b extent_hi
  end

(* A write of [len] bytes at offset [off] of the cached chunk. *)
let[@inline] note_write t off len =
  if off < t.cache_lo then t.cache_lo <- off;
  if off + len > t.cache_hi then t.cache_hi <- off + len

let release t =
  if not t.released then begin
    t.released <- true;
    let hooks = t.on_release in
    t.on_release <- [];
    List.iter (fun f -> f ()) (List.rev hooks);
    set_cache t (-1) no_chunk;
    let pool = Domain.DLS.get pool_key in
    let pooled = ref (List.length !pool) in
    for p = 0 to t.n_pages - 1 do
      if !pooled < max_pooled_pages then begin
        pool := t.pages.(p) :: !pool;
        incr pooled
      end
    done;
    t.n_pages <- 0;
    Int_index.clear t.index
  end

let check addr = if addr < 0 then invalid_arg "Sparse_mem: negative address"

(* The chunk's storage, or [no_chunk] when untouched: reads of untouched
   memory, which the cache never holds, take this path every time. *)
let lookup t idx =
  let p = Int_index.find t.index idx 0 in
  if p < 0 then no_chunk else t.pages.(p)

let add_page t idx b =
  let p = t.n_pages in
  if p = Array.length t.pages then begin
    let a = Array.make (2 * p) no_chunk in
    Array.blit t.pages 0 a 0 p;
    t.pages <- a
  end;
  t.pages.(p) <- b;
  t.n_pages <- p + 1;
  Int_index.add t.index idx 0 p

(* Chunk lookup for a write (materializes the chunk on a miss). *)
let chunk_for t addr =
  let idx = addr / chunk_size in
  if idx = t.cache_idx then t.cache_chunk
  else begin
    let b = lookup t idx in
    let b =
      if b != no_chunk then b
      else begin
        let b = fresh_page () in
        add_page t idx b;
        b
      end
    in
    set_cache t idx b;
    b
  end

(* Chunk lookup for a read ([no_chunk] when untouched — reads as zero). *)
let chunk_at t addr =
  let idx = addr / chunk_size in
  if idx = t.cache_idx then t.cache_chunk
  else begin
    let b = lookup t idx in
    if b != no_chunk then set_cache t idx b;
    b
  end

let read_u8 t addr =
  check addr;
  let b = chunk_at t addr in
  if b == no_chunk then 0
  else Char.code (Bytes.unsafe_get b (addr mod chunk_size))

let write_u8 t addr v =
  check addr;
  let b = chunk_for t addr in
  let off = addr mod chunk_size in
  Bytes.unsafe_set b off (Char.unsafe_chr (v land 0xff));
  note_write t off 1

(* Word accesses whose 8 bytes straddle two chunks, byte by byte. *)
let read_u64_split t addr =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read_u8 t (addr + i)))
  done;
  !v

let write_u64_split t addr v =
  for i = 0 to 7 do
    write_u8 t (addr + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
  done

(* The word accessors are inlined into the [int] and comparison variants
   below, so those never box an [int64]: a word access within one chunk
   allocates nothing. *)
let[@inline] read_u64 t addr =
  check addr;
  let off = addr mod chunk_size in
  if off <= chunk_size - 8 then begin
    let b = chunk_at t addr in
    if b == no_chunk then 0L else Bytes.get_int64_le b off
  end
  else read_u64_split t addr

let[@inline] write_u64 t addr v =
  check addr;
  let off = addr mod chunk_size in
  if off <= chunk_size - 8 then begin
    Bytes.set_int64_le (chunk_for t addr) off v;
    note_write t off 8
  end
  else write_u64_split t addr v

let read_int t addr = Int64.to_int (read_u64 t addr)
let write_int t addr v = write_u64 t addr (Int64.of_int v)
let equal_u64 t addr v = read_u64 t addr = v

(* ---------- Object frames (the CSOD header and canary) ----------

   A frame within one chunk costs one chunk resolution, one range check
   and, for a store, one note of the written extent: noting the hull
   [a, tail + 8) once leaves the extent where noting the header and the
   tail apart would.  A frame that straddles chunks goes word by word. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Little-endian, unchecked: the range check has put [off] in the chunk. *)
let[@inline] get_le b off = if Sys.big_endian then swap64 (get64u b off) else get64u b off
let[@inline] set_le b off v = set64u b off (if Sys.big_endian then swap64 v else v)

let frame_header = 32

(* From a frame's start to its tail: the header and the body rounded up
   to a word.  A length that is negative, or so large that this wraps,
   gives less than [frame_header]. *)
let[@inline] frame_gap n = frame_header + ((n + 7) land lnot 7)

let frame_tail a n = a + frame_gap n

(* Does a frame whose tail is [gap] bytes past its start at chunk offset
   [off] lie in that chunk? *)
let[@inline] in_chunk off gap = gap >= frame_header && gap <= chunk_size - 8 - off

let write_frame t a w0 w1 w2 w3 v =
  check a;
  let off = a land (chunk_size - 1) and gap = frame_gap w1 in
  if in_chunk off gap then begin
    let ch = chunk_for t a in
    set_le ch off (Int64.of_int w0);
    set_le ch (off + 8) (Int64.of_int w1);
    set_le ch (off + 16) (Int64.of_int w2);
    set_le ch (off + 24) (Int64.of_int w3);
    set_le ch (off + gap) v;
    note_write t off (gap + 8)
  end
  else begin
    write_int t a w0;
    write_int t (a + 8) w1;
    write_int t (a + 16) w2;
    write_int t (a + 24) w3;
    write_u64 t (a + gap) v
  end

let tail_unread = -1

let read_frame t a dst v =
  check a;
  let off = a land (chunk_size - 1) in
  let ch = if off <= chunk_size - frame_header then chunk_at t a else no_chunk in
  if ch != no_chunk then begin
    let n = Int64.to_int (get_le ch (off + 8)) in
    dst.(0) <- Int64.to_int (get_le ch off);
    dst.(1) <- n;
    dst.(2) <- Int64.to_int (get_le ch (off + 16));
    dst.(3) <- Int64.to_int (get_le ch (off + 24));
    let gap = frame_gap n in
    if in_chunk off gap then Bool.to_int (get_le ch (off + gap) = v) else tail_unread
  end
  else begin
    (* split by a chunk boundary, or untouched *)
    for i = 0 to 3 do
      dst.(i) <- read_int t (a + (8 * i))
    done;
    tail_unread
  end

(* Store returning the displaced value: the armed response layer's
   pre-write capture folded into the write itself, so the squash path
   costs one chunk lookup instead of a separate read followed by a
   write. *)
let exchange_u8 t addr v =
  check addr;
  let b = chunk_for t addr in
  let off = addr mod chunk_size in
  let old = Char.code (Bytes.unsafe_get b off) in
  Bytes.unsafe_set b off (Char.unsafe_chr (v land 0xff));
  note_write t off 1;
  old

let exchange_int t addr v =
  check addr;
  let off = addr mod chunk_size in
  if off <= chunk_size - 8 then begin
    let b = chunk_for t addr in
    let old = Bytes.get_int64_le b off in
    Bytes.set_int64_le b off (Int64.of_int v);
    note_write t off 8;
    Int64.to_int old
  end
  else begin
    let old = read_int t addr in
    write_int t addr v;
    old
  end

let fill t addr len v =
  if len < 0 then invalid_arg "Sparse_mem.fill: negative length";
  if len > 0 then begin
    check addr;
    (* Chunk-wise [Bytes.fill] instead of a byte loop; chunks are still
       materialized for the whole range (even when zero-filling) so the
       resident-set proxy sees exactly what the byte loop touched. *)
    let c = Char.unsafe_chr (v land 0xff) in
    let pos = ref addr and left = ref len in
    while !left > 0 do
      let b = chunk_for t !pos in
      let off = !pos mod chunk_size in
      let n = min !left (chunk_size - off) in
      Bytes.fill b off n c;
      note_write t off n;
      pos := !pos + n;
      left := !left - n
    done
  end
