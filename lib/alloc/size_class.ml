let max_class = 4096
let align = 16
let max_request = max_int - (align - 1)

type t = Small of int | Large of int

let block_bytes size =
  if size < 0 || size > max_request then
    invalid_arg "Size_class.block_bytes: size out of range";
  let size = if size = 0 then 1 else size in
  (size + align - 1) / align * align

(* [max_class] is a multiple of [align], so a request is small exactly
   when its rounded block is. *)
let classify size =
  if size < 0 then invalid_arg "Size_class.classify: negative size";
  let block = block_bytes size in
  if block <= max_class then Small block else Large block

let block_size = function Small n -> n | Large n -> n

let small_index block = (block / align) - 1

let num_small_classes = max_class / align
