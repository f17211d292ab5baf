type chain = { mutable pcs : int array; mutable len : int }

let chain n = { pcs = Array.make n 0; len = 0 }

let grow c =
  let pcs = Array.make (max 16 (2 * Array.length c.pcs)) 0 in
  Array.blit c.pcs 0 pcs 0 c.len;
  c.pcs <- pcs

let[@inline] push c pc =
  if c.len = Array.length c.pcs then grow c;
  Array.unsafe_set c.pcs c.len pc;
  c.len <- c.len + 1

let push_n c pc n =
  while c.len + n > Array.length c.pcs do grow c done;
  Array.fill c.pcs c.len n pc;
  c.len <- c.len + n

let to_list c ~off ~len =
  let rec go i acc = if i < off then acc else go (i - 1) (c.pcs.(i) :: acc) in
  go (off + len - 1) []

type t = {
  mutable callsite : int;
  mutable stack_offset : int;
  write : chain -> unit;
}

type key = int * int

let key t = (t.callsite, t.stack_offset)

let[@inline] point t ~callsite ~stack_offset =
  t.callsite <- callsite;
  t.stack_offset <- stack_offset

let synthetic ?(stack_offset = 0) ~callsite () =
  let rec t = { callsite; stack_offset; write = (fun c -> push c t.callsite) } in
  t
