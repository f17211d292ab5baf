type ('k, 'v) node = { key : 'k; mutable value : 'v; mutable next : ('k, 'v) node option }

type ('k, 'v) t = {
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  buckets : ('k, 'v) node option array;
  mutable size : int;
  mutable locks : int;
}

let create ?(buckets = 65536) ~hash ~equal () =
  if buckets <= 0 then invalid_arg "Chained_table.create: buckets must be positive";
  { hash; equal; buckets = Array.make buckets None; size = 0; locks = 0 }

let length t = t.size

let clear t =
  if t.size > 0 then Array.fill t.buckets 0 (Array.length t.buckets) None;
  t.size <- 0;
  t.locks <- 0

let bucket_of t k = (t.hash k land max_int) mod Array.length t.buckets

let rec chain_find equal k = function
  | None -> None
  | Some node -> if equal node.key k then Some node else chain_find equal k node.next

let find t k =
  t.locks <- t.locks + 1;
  match chain_find t.equal k t.buckets.(bucket_of t k) with
  | None -> None
  | Some node -> Some node.value

let find_or_add t k ~default =
  t.locks <- t.locks + 1;
  let b = bucket_of t k in
  match chain_find t.equal k t.buckets.(b) with
  | Some node -> node.value
  | None ->
    let v = default () in
    t.buckets.(b) <- Some { key = k; value = v; next = t.buckets.(b) };
    t.size <- t.size + 1;
    v

let replace t k v =
  t.locks <- t.locks + 1;
  let b = bucket_of t k in
  match chain_find t.equal k t.buckets.(b) with
  | Some node -> node.value <- v
  | None ->
    t.buckets.(b) <- Some { key = k; value = v; next = t.buckets.(b) };
    t.size <- t.size + 1

let remove t k =
  t.locks <- t.locks + 1;
  let b = bucket_of t k in
  let rec go = function
    | None -> None
    | Some node when t.equal node.key k ->
      t.size <- t.size - 1;
      node.next
    | Some node ->
      node.next <- go node.next;
      Some node
  in
  t.buckets.(b) <- go t.buckets.(b)

let iter f t =
  Array.iter
    (fun chain ->
      let rec go = function
        | None -> ()
        | Some node ->
          f node.key node.value;
          go node.next
      in
      go chain)
    t.buckets

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let lock_acquisitions t = t.locks

let max_chain_length t =
  Array.fold_left
    (fun best chain ->
      let rec len acc = function None -> acc | Some node -> len (acc + 1) node.next in
      max best (len 0 chain))
    0 t.buckets

let memory_bytes t =
  (* bucket array: one word per slot; each node: header + 3 fields. *)
  (Array.length t.buckets * 8) + (t.size * 4 * 8)
