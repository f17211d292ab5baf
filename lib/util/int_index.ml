(* Cell [i] is the three ints [cells.(3i)], [cells.(3i+1)] and
   [cells.(3i+2)]: the key pair and its value, the value -1 when the cell
   is empty.  The number of cells is a power of two, and [add] and
   [replace] double it before a key would make the table more than half
   full, so a probe always reaches an empty cell.  [remove] moves back the
   rest of its cluster instead of leaving a tombstone, so a table that
   sees many removals never fills with dead cells. *)
type t = {
  mutable cells : int array;
  mutable mask : int;   (* number of cells - 1 *)
  mutable shift : int;  (* Sys.int_size - log2 (number of cells) *)
  mutable length : int;
}

let empty_cells n =
  let c = Array.make (3 * n) 0 in
  for i = 0 to n - 1 do c.((3 * i) + 2) <- -1 done;
  c

let create n =
  let bits = ref 1 in
  while 1 lsl !bits < 2 * n do incr bits done;
  { cells = empty_cells (1 lsl !bits);
    mask = (1 lsl !bits) - 1;
    shift = Sys.int_size - !bits;
    length = 0 }

let length t = t.length

(* The top bits of a multilinear hash of the pair, each int times its own
   odd constant: Fibonacci hashing for a single-int key ([b = 0]).  The
   two products are independent, so the home costs one multiply's
   latency. *)
let[@inline] home t a b =
  ((a * 0x9E3779B97F4A7C1) + (b * 0x2545F4914F6CDD1D)) lsr t.shift

(* The cell holding (a, b), or the empty cell where it would go.  Inlined:
   every operation starts with it. *)
let[@inline] probe t a b =
  let c = t.cells in
  let i = ref (home t a b) in
  while
    let k = 3 * !i in
    c.(k + 2) >= 0 && not (c.(k) = a && c.(k + 1) = b)
  do
    i := (!i + 1) land t.mask
  done;
  !i

let[@inline] find t a b = t.cells.((3 * probe t a b) + 2)

let[@inline] set_cell (c : int array) i a b v =
  let k = 3 * i in
  c.(k) <- a;
  c.(k + 1) <- b;
  c.(k + 2) <- v

let grow t =
  let old = t.cells in
  let n = 2 * (t.mask + 1) in
  t.cells <- empty_cells n;
  t.mask <- n - 1;
  t.shift <- t.shift - 1;
  for i = 0 to (Array.length old / 3) - 1 do
    let k = 3 * i in
    if old.(k + 2) >= 0 then
      set_cell t.cells (probe t old.(k) old.(k + 1)) old.(k) old.(k + 1) old.(k + 2)
  done

(* Bind an absent (a, b) at cell [i], its empty probe end. *)
let insert t i a b v =
  let i =
    if 2 * (t.length + 1) > t.mask + 1 then begin grow t; probe t a b end else i
  in
  set_cell t.cells i a b v;
  t.length <- t.length + 1

let check_value v = if v < 0 then invalid_arg "Int_index: negative value"

let add t a b v =
  check_value v;
  let i = probe t a b in
  if t.cells.((3 * i) + 2) >= 0 then invalid_arg "Int_index.add: key present";
  insert t i a b v

let replace t a b v =
  check_value v;
  let i = probe t a b in
  if t.cells.((3 * i) + 2) >= 0 then t.cells.((3 * i) + 2) <- v
  else insert t i a b v

let locate t a b =
  let i = probe t a b in
  if t.cells.((3 * i) + 2) >= 0 then i else -1

let set_cell_value t i v =
  check_value v;
  let k = (3 * i) + 2 in
  if t.cells.(k) < 0 then invalid_arg "Int_index.set_cell_value: empty cell";
  t.cells.(k) <- v

let remove t a b =
  let c = t.cells and mask = t.mask in
  let i = probe t a b in
  let v = c.((3 * i) + 2) in
  if v >= 0 then begin
    (* Empty cell [i], then move back every later entry of its cluster
       whose home does not lie cyclically in (hole, j]. *)
    let hole = ref i and j = ref ((i + 1) land mask) in
    while c.((3 * !j) + 2) >= 0 do
      let k = 3 * !j in
      let h = home t c.(k) c.(k + 1) in
      if (!j - h) land mask >= (!j - !hole) land mask then begin
        set_cell c !hole c.(k) c.(k + 1) c.(k + 2);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    c.((3 * !hole) + 2) <- -1;
    t.length <- t.length - 1
  end;
  v

let clear t =
  if t.length > 0 then begin
    for i = 0 to t.mask do t.cells.((3 * i) + 2) <- -1 done;
    t.length <- 0
  end

let copy t = { t with cells = Array.copy t.cells }

let[@inline] cells t = t.mask + 1
let[@inline] cell_a t i = t.cells.(3 * i)
let[@inline] cell_b t i = t.cells.((3 * i) + 1)
let[@inline] cell_value t i = t.cells.((3 * i) + 2)
