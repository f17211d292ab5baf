type 'a t = {
  slots : 'a option array;
  mutable head : int; (* index of oldest element *)
  mutable len : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { slots = Array.make capacity None; head = 0; len = 0 }

let capacity t = Array.length t.slots
let length t = t.len
let is_empty t = t.len = 0
let is_full t = t.len = Array.length t.slots

let push t x =
  if is_full t then failwith "Ring.push: full";
  let tail = (t.head + t.len) mod capacity t in
  t.slots.(tail) <- Some x;
  t.len <- t.len + 1

let push_overwriting t x =
  if is_full t then begin
    let dropped = t.slots.(t.head) in
    t.slots.(t.head) <- Some x;
    t.head <- (t.head + 1) mod capacity t;
    dropped
  end
  else begin
    push t x;
    None
  end

let pop t =
  if t.len = 0 then None
  else begin
    let x = t.slots.(t.head) in
    t.slots.(t.head) <- None;
    t.head <- (t.head + 1) mod capacity t;
    t.len <- t.len - 1;
    x
  end

let peek t = if t.len = 0 then None else t.slots.(t.head)

(* [head + i] is below twice the capacity, so one subtraction wraps it:
   no division on the free path's scan. *)
let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ring.get: index out of range";
  let k = t.head + i in
  let k = if k >= capacity t then k - capacity t else k in
  match t.slots.(k) with
  | Some x -> x
  | None -> assert false

let advance t =
  if t.len > 1 then begin
    match pop t with
    | Some x -> push t x
    | None -> ()
  end

let to_list t =
  let rec go i acc = if i < 0 then acc else
    match t.slots.((t.head + i) mod capacity t) with
    | Some x -> go (i - 1) (x :: acc)
    | None -> go (i - 1) acc
  in
  go (t.len - 1) []

let remove_at t i =
  if i < 0 || i >= t.len then invalid_arg "Ring.remove_at: index out of range";
  let cap = capacity t in
  for k = i to t.len - 2 do
    t.slots.((t.head + k) mod cap) <- t.slots.((t.head + k + 1) mod cap)
  done;
  t.slots.((t.head + t.len - 1) mod cap) <- None;
  t.len <- t.len - 1

let remove_where t p =
  let rec find i = if i >= t.len then None else if p (get t i) then Some i else find (i + 1) in
  match find 0 with
  | None -> None
  | Some i ->
    let hit = get t i in
    remove_at t i;
    Some hit

let iter f t = List.iter f (to_list t)
