(* One shadow byte per 8-byte granule; the byte is a bitmask of the
   granule's poisoned bytes (bit i = byte i unaddressable).  Byte-exact —
   slightly more expressive than ASan's prefix encoding, but ASan aligns
   objects so the two coincide on every pattern an allocator produces.

   The shadow is backed by the same chunked sparse memory the machine
   uses, mirroring real ASan's flat 1:8 shadow mapping: lookups are a
   chunk probe plus a byte access, and shadow residency scales with the
   address range actually touched. *)
type t = { shadow : Sparse_mem.t }

let create () = { shadow = Sparse_mem.create () }
let release t = Sparse_mem.release t.shadow

let mask_of_range gstart lo hi =
  (* bits for bytes of granule [gstart..gstart+8) within [lo, hi) *)
  let m = ref 0 in
  for b = 0 to 7 do
    let a = gstart + b in
    if a >= lo && a < hi then m := !m lor (1 lsl b)
  done;
  !m

let update t ~addr ~len f =
  if len < 0 then invalid_arg "Shadow: negative length";
  if len > 0 then begin
    let first = addr / 8 and last = (addr + len - 1) / 8 in
    for g = first to last do
      let m = mask_of_range (g * 8) addr (addr + len) in
      Sparse_mem.write_u8 t.shadow g (f (Sparse_mem.read_u8 t.shadow g) m)
    done
  end

let poison t ~addr ~len = update t ~addr ~len (fun old m -> old lor m)
let unpoison t ~addr ~len = update t ~addr ~len (fun old m -> old land lnot m)

let is_poisoned t ~addr ~len =
  if len <= 0 then false
  else begin
    let result = ref false in
    let first = addr / 8 and last = (addr + len - 1) / 8 in
    for g = first to last do
      if
        (not !result)
        && Sparse_mem.read_u8 t.shadow g land mask_of_range (g * 8) addr (addr + len)
           <> 0
      then result := true
    done;
    !result
  end
