let min_class = 16
let max_class = 4096
let align = 16

type t = Small of int | Large of int

let classify size =
  if size < 0 then invalid_arg "Size_class.classify: negative size";
  let size = if size = 0 then 1 else size in
  let rounded = (size + align - 1) / align * align in
  if size <= max_class then Small rounded else Large rounded

let block_size = function Small n -> n | Large n -> n

let small_index block = (block / align) - 1

let num_small_classes = max_class / align
