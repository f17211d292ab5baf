(* Alphabet over the active-response layer.  Two runtimes run side by
   side: an oblivious one whose out-of-bounds accesses must all be
   redirected into the shadow slab (each op allocates, misbehaves one past
   the end, and frees — so a hardware watchpoint is always free and every
   overflow is caught in flight), and a patch-mode one sharing a real
   evidence store with a hit-count model.  The headline invariant is the
   code-less patching contract: once a context's evidence reaches the
   conviction threshold, its allocations are padded and an overflow there
   never produces new evidence.  The planted variant loses exactly the
   conviction-crossing store write, so the model convicts a context the
   real store never did — the seeded target the shrinking regression test
   must find and minimize. *)

type side = {
  machine : Machine.t;
  heap : Heap.t;
  rt : Runtime.t;
  tool : Tool.t;
  resp : Respond.t;
  ctx : Alloc_ctx.t; (* re-pointed before each malloc *)
}

type state = {
  obl : side;  (* failure-oblivious runtime *)
  pat : side;  (* code-less patching runtime, reads [store] *)
  store : Persist.t;
  threshold : int;
  hits : (int * int, int) Hashtbl.t;  (* model evidence counts *)
  buggy : bool;
}

(* Convictable contexts live in a deliberately tiny space so random
   sequences pile evidence onto the same key quickly. *)
let convict_key c = (0xA00 + (c mod 3), 0)

(* The oblivious side's allocation contexts.  Seeding these into that
   runtime's own store pins them at 100% watch probability, so every op's
   object is watched (a slot is always free: each op frees its object) and
   the redirect obligation is deterministic, not a sampling coin. *)
let oblivious_read_site pc = 0x700 + (pc mod 8)
let oblivious_write_site pc = 0x780 + (pc mod 8)

(* The side's one handle, re-pointed at [callsite] (stack offset 0). *)
let repoint side ~callsite =
  Alloc_ctx.point side.ctx ~callsite ~stack_offset:0;
  side.ctx

let oblivious_store () =
  let s = Persist.create () in
  for i = 0 to 7 do
    Persist.add s (0x700 + i, 0);
    Persist.add s (0x780 + i, 0)
  done;
  s

let model_hits st key =
  match Hashtbl.find_opt st.hits key with Some n -> n | None -> 0

let summary side = Respond.summary side.resp

let ops : state Sim.op list =
  [ { Sim.op_name = "respond-oblivious-read";
      weight = 3;
      pre = (fun (_ : state) -> true);
      gen = (fun _ g -> [ 8 + Prng.int g 64; Prng.int g 64 ]);
      apply =
        (fun st args ->
          let size, pc =
            match args with s :: p :: _ -> (max 1 s, p) | _ -> (8, 0)
          in
          let ctx = repoint st.obl ~callsite:(oblivious_read_site pc) in
          let s0 = summary st.obl in
          let p = st.obl.tool.Tool.malloc ~size ~ctx in
          Machine.set_pc st.obl.machine (0x400 + (pc mod 64));
          (* The word past the object (sizes round to the watched word, so
             aim at the boundary, not [p + size]): the watchpoint traps and
             the response layer overrides the load.  A fresh object has an
             empty slab, so the manufactured value is zero. *)
          let v =
            Machine.load_byte st.obl.machine (Canary.boundary_addr ~app:p ~size)
          in
          let s1 = summary st.obl in
          st.obl.tool.Tool.free ~ptr:p;
          let s2 = summary st.obl in
          if s1.Respond.redirected_reads <> s0.Respond.redirected_reads + 1
          then Error "out-of-bounds read was not redirected"
          else if v <> 0 then
            Printf.ksprintf Result.error
              "manufactured read returned %d, expected zero" v
          else if s2.Respond.escapes <> s0.Respond.escapes then
            Error "an oblivious read escaped"
          else Ok ()) };
    { Sim.op_name = "respond-oblivious-write";
      weight = 3;
      pre = (fun _ -> true);
      gen =
        (fun _ g -> [ 8 + Prng.int g 64; Prng.int g 64; 1 + Prng.int g 255 ]);
      apply =
        (fun st args ->
          let size, pc, value =
            match args with
            | s :: p :: v :: _ -> (max 1 s, p, (v mod 255) + 1)
            | _ -> (8, 0, 1)
          in
          let ctx = repoint st.obl ~callsite:(oblivious_write_site pc) in
          let s0 = summary st.obl in
          let p = st.obl.tool.Tool.malloc ~size ~ctx in
          let oob = Canary.boundary_addr ~app:p ~size in
          Machine.set_pc st.obl.machine (0x440 + (pc mod 64));
          Machine.store_byte st.obl.machine oob value;
          let s1 = summary st.obl in
          let slab = Respond.slab_get st.obl.resp ~obj:p ~off:(oob - p) in
          st.obl.tool.Tool.free ~ptr:p;
          let s2 = summary st.obl in
          if s1.Respond.redirected_writes <> s0.Respond.redirected_writes + 1
          then Error "out-of-bounds write was not squashed"
          else if slab <> value then
            Printf.ksprintf Result.error
              "slab holds %d, squashed value was %d" slab value
          else if s2.Respond.escapes <> s0.Respond.escapes then
            Error "a squashed write corrupted the canary"
          else Ok ()) };
    { Sim.op_name = "convict-context";
      weight = 4;
      pre = (fun _ -> true);
      gen = (fun _ g -> [ Prng.int g 3 ]);
      apply =
        (fun st args ->
          let c = match args with c :: _ -> c | [] -> 0 in
          let key = convict_key c in
          let n = model_hits st key + 1 in
          Hashtbl.replace st.hits key n;
          (* Planted bug: the store write that crosses the conviction
             threshold is lost, so the model convicts a context the real
             store holds one hit short of conviction. *)
          if st.buggy && n = st.threshold then ()
          else Persist.add st.store key;
          Ok ()) };
    { Sim.op_name = "apply-patch";
      weight = 3;
      pre = (fun _ -> true);
      gen = (fun _ g -> [ Prng.int g 3; 8 + Prng.int g 64 ]);
      apply =
        (fun st args ->
          let c, size =
            match args with c :: s :: _ -> (c, max 1 s) | _ -> (0, 8)
          in
          let key = convict_key c in
          let convicted = model_hits st key >= st.threshold in
          let d0 = List.length (Runtime.detections st.pat.rt) in
          let s0 = summary st.pat in
          let ctx = repoint st.pat ~callsite:(fst key) in
          let p = st.pat.tool.Tool.malloc ~size ~ctx in
          Machine.set_pc st.pat.machine (0x800 + (c mod 3));
          (* The word past the object.  A convicted context's object
             carries guard slack instead of a watchpoint, so this lands in
             owned pad; an unconvicted one is watched (or canary-checked)
             and detects as usual — that is ordinary CSOD, not a
             violation. *)
          Machine.store_byte st.pat.machine (Canary.boundary_addr ~app:p ~size)
            0x42;
          st.pat.tool.Tool.free ~ptr:p;
          let d1 = List.length (Runtime.detections st.pat.rt) in
          let s1 = summary st.pat in
          if convicted && d1 > d0 then
            Error "patched context produced new evidence"
          else if
            convicted && s1.Respond.patched_allocs <= s0.Respond.patched_allocs
          then Error "convicted context allocation was not patched"
          else Ok ()) } ]

let check st =
  let so = summary st.obl in
  if so.Respond.escapes <> 0 then
    Printf.ksprintf Option.some "%d escapes on the oblivious runtime"
      so.Respond.escapes
  else if not (Respond.survived st.obl.resp) then
    Some "oblivious runtime lost its survival claim"
  else None

let digest st =
  let so = summary st.obl and sp = summary st.pat in
  let h =
    Sim.digest_ints
      [ so.Respond.redirected_reads; so.Respond.redirected_writes;
        so.Respond.escapes;
        (* the oblivious side's response count, which saved repros hash *)
        so.Respond.redirected_reads + so.Respond.redirected_writes
        + so.Respond.escapes + so.Respond.patched_allocs;
        sp.Respond.patched_allocs;
        List.length (Runtime.detections st.pat.rt); Persist.count st.store ]
  in
  let acc = ref 0L in
  List.iter
    (fun ((site, off) as k) ->
      acc :=
        Int64.add !acc
          (Int64.of_int ((((site * 131) + off) * 17) + Persist.hits st.store k)))
    (Persist.keys st.store);
  Int64.logxor h !acc

let make_side ~seed ~offset ~store mode =
  let machine = Machine.create ~seed:(seed + offset) () in
  let heap = Heap.create machine in
  let resp = Respond.create mode ~machine in
  let rt = Runtime.create ~seed:offset ~store ~respond:resp ~machine ~heap () in
  { machine; heap; rt; tool = Runtime.tool rt; resp;
    ctx = Alloc_ctx.synthetic ~callsite:0 () }

let threshold = 2

let alphabet ?(plant = false) () =
  Sim.Packed
    { Sim.name = (if plant then "respond-lost-conviction" else "respond");
      ops;
      init =
        (fun ~seed ->
          let store = Persist.create () in
          { obl =
              make_side ~seed ~offset:0 ~store:(oblivious_store ())
                Respond.Oblivious;
            pat = make_side ~seed ~offset:1 ~store (Respond.Patch threshold);
            store;
            threshold;
            hits = Hashtbl.create 8;
            buggy = plant });
      check;
      digest;
      teardown =
        (fun st ->
          Runtime.finish st.obl.rt;
          Runtime.finish st.pat.rt;
          Sparse_mem.release (Machine.mem st.obl.machine);
          Sparse_mem.release (Machine.mem st.pat.machine)) }
