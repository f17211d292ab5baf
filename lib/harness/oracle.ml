type overflow = {
  kind : Tool.access_kind;
  object_addr : int;
  object_size : int;
  alloc_index : int;
  contexts_before : int;
  allocs_before : int;
  access_site : int;
  alloc_ctx_key : Alloc_ctx.key;
}

type obj = {
  o_addr : int;
  o_size : int;
  o_index : int;
  o_contexts : int;
  o_allocs : int;
  o_key : Alloc_ctx.key;
}

(* Bytes past each object's end that we register as tripwire territory.
   Contiguous overflows strike within the first few words. *)
let zone = 32

(* Every distinct full chain a (call site, stack offset) key reached, and
   the allocations made under the key. *)
type census = { mutable chains : int array list; mutable allocs : int }

type t = {
  heap : Heap.t;
  tripwires : (int, obj) Hashtbl.t; (* one entry per zone byte *)
  contexts : (Alloc_ctx.key, census) Hashtbl.t;
  chain : Alloc_ctx.chain; (* scratch: the current allocation's chain *)
  sizes : (int, int) Hashtbl.t; (* live object -> requested size *)
  mutable allocs : int;
  mutable first : overflow option;
}

let create _machine heap =
  { heap;
    tripwires = Hashtbl.create 4096;
    contexts = Hashtbl.create 256;
    chain = Alloc_ctx.chain 64;
    sizes = Hashtbl.create 1024;
    allocs = 0;
    first = None }

let register t (obj : obj) =
  for i = 0 to zone - 1 do
    Hashtbl.replace t.tripwires (obj.o_addr + obj.o_size + i) obj
  done

let unregister t addr size =
  for i = 0 to zone - 1 do
    Hashtbl.remove t.tripwires (addr + size + i)
  done

(* Is the chain in [c] the same as [a]? *)
let same_chain (c : Alloc_ctx.chain) a =
  c.Alloc_ctx.len = Array.length a
  && begin
    let rec from i = i = Array.length a || (c.Alloc_ctx.pcs.(i) = a.(i) && from (i + 1)) in
    from 0
  end

(* The census of the paper's claim that the cheap pair is almost always
   unique per full context (Section III-A1): write every allocation's
   chain through its handle, and keep the distinct ones per key. *)
let note_chain t ctx =
  let key = Alloc_ctx.key ctx in
  let c = t.chain in
  c.Alloc_ctx.len <- 0;
  ctx.Alloc_ctx.write c;
  let k =
    match Hashtbl.find_opt t.contexts key with
    | Some k -> k
    | None ->
      let k = { chains = []; allocs = 0 } in
      Hashtbl.add t.contexts key k;
      k
  in
  k.allocs <- k.allocs + 1;
  if not (List.exists (same_chain c) k.chains) then
    k.chains <- Array.sub c.Alloc_ctx.pcs 0 c.Alloc_ctx.len :: k.chains

let oracle_malloc t ~size ~ctx =
  (* Pad the block so the tripwire zone lies inside the object's own
     allocation, exactly as detection tools pad theirs: a neighbour can
     then never sit inside (or legitimately touch) the zone. *)
  let addr = Heap.malloc t.heap (size + zone) in
  Hashtbl.replace t.sizes addr size;
  t.allocs <- t.allocs + 1;
  note_chain t ctx;
  let obj =
    { o_addr = addr;
      o_size = size;
      o_index = t.allocs;
      o_contexts = Hashtbl.length t.contexts;
      o_allocs = t.allocs;
      o_key = Alloc_ctx.key ctx }
  in
  register t obj;
  addr

let oracle_free t ~ptr =
  (match Hashtbl.find_opt t.sizes ptr with
  | Some size ->
    unregister t ptr size;
    Hashtbl.remove t.sizes ptr
  | None -> ());
  Heap.free t.heap ptr

let on_access t ~addr ~len ~kind ~site =
  if t.first = None then
    let rec scan i =
      if i >= len then ()
      else
        match Hashtbl.find_opt t.tripwires (addr + i) with
        | Some obj ->
          t.first <-
            Some
              { kind;
                object_addr = obj.o_addr;
                object_size = obj.o_size;
                alloc_index = obj.o_index;
                contexts_before = obj.o_contexts;
                allocs_before = obj.o_allocs;
                access_site = site;
                alloc_ctx_key = obj.o_key }
        | None -> scan (i + 1)
    in
    scan 0

let tool t =
  { Tool.name = "oracle";
    malloc = (fun ~size ~ctx -> oracle_malloc t ~size ~ctx);
    free = (fun ~ptr -> oracle_free t ~ptr);
    on_access = (fun ~addr ~len ~kind ~site -> on_access t ~addr ~len ~kind ~site);
    at_exit = (fun () -> ());
    extra_resident_bytes = (fun () -> 0) }

let first_overflow t = t.first
let total_contexts t = Hashtbl.length t.contexts
let total_allocations t = t.allocs

let ambiguous f t =
  Hashtbl.fold
    (fun _ k n -> match k.chains with _ :: _ :: _ -> n + f k | _ -> n)
    t.contexts 0

let ambiguous_keys = ambiguous (fun _ -> 1)
let ambiguous_allocations = ambiguous (fun k -> k.allocs)

let observe ?(seed = 1) ?(engine = Engine.Interp) ~(app : Buggy_app.t) ~input
    () =
  let program = Buggy_app.program app in
  let machine = Machine.create ~seed () in
  let heap = Heap.create machine in
  let t = create machine heap in
  let inputs =
    match input with
    | Execution.Buggy -> app.Buggy_app.buggy_inputs
    | Execution.Benign -> app.Buggy_app.benign_inputs
  in
  try
    (* The oracle defaults to the AST interpreter: ground truth rides the
       reference semantics, independent of the VM under test. *)
    let (_ : Interp.result) =
      Engine.run ~engine ~machine ~tool:(tool t) ~program ~inputs
        ~app_seed:seed ()
    in
    Ok t
  with
  | Interp.Runtime_error (msg, loc) ->
    Error (Printf.sprintf "%s: %s" (Srcloc.to_string loc) msg)
  | Heap.Error msg -> Error msg
