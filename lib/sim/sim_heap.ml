(* Alphabet over Heap + Sparse_mem.  The sparse memory under test is a
   standalone instance (not the machine's) so the byte model covers every
   write; the heap draws from its own machine as in production.

   Addresses cluster near chunk boundaries — the same distribution the
   original hand-rolled property used — so word accesses regularly straddle
   two chunks; [gen] resolves the clustering into a concrete address, which
   keeps recorded sequences self-contained and lets shrinking minimize the
   address directly. *)

type state = {
  machine : Machine.t;
  heap : Heap.t;
  live : (int, int) Hashtbl.t; (* app pointer -> requested size *)
  mutable freed : int list;    (* most recent first *)
  mutable mem : Sparse_mem.t;
  bytes : (int, int) Hashtbl.t; (* model of [mem] *)
}

let live_ptrs st =
  List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) st.live [])

let byte st a = Option.value ~default:0 (Hashtbl.find_opt st.bytes a)

let gen_addr g =
  let base = Prng.int g 4 * Sparse_mem.chunk_size in
  let off =
    match Prng.int g 3 with
    | 0 -> Prng.int g Sparse_mem.chunk_size
    | 1 -> Sparse_mem.chunk_size - 8 + Prng.int g 16
    | _ -> Prng.int g 256
  in
  base + off

let nth_live st idx =
  let ptrs = live_ptrs st in
  List.nth ptrs (idx mod List.length ptrs)

let ops : state Sim.op list =
  [ { Sim.op_name = "alloc";
      weight = 5;
      pre = (fun _ -> true);
      gen = (fun _ g -> [ 1 + Prng.int g 512 ]);
      apply =
        (fun st args ->
          let size = max 1 (match args with s :: _ -> s | [] -> 1) in
          let p = Heap.malloc st.heap size in
          if Hashtbl.mem st.live p then
            Error (Printf.sprintf "malloc returned live pointer %#x" p)
          else begin
            Hashtbl.replace st.live p size;
            Ok ()
          end) };
    { Sim.op_name = "free";
      weight = 3;
      pre = (fun st -> Hashtbl.length st.live > 0);
      gen = (fun st g -> [ Prng.int g (max 1 (Hashtbl.length st.live)) ]);
      apply =
        (fun st args ->
          let idx = match args with i :: _ -> i | [] -> 0 in
          let p = nth_live st idx in
          Heap.free st.heap p;
          Hashtbl.remove st.live p;
          st.freed <- p :: st.freed;
          Ok ()) };
    { Sim.op_name = "double-free";
      weight = 1;
      pre = (fun st -> st.freed <> []);
      gen = (fun _ _ -> []);
      apply =
        (fun st _ ->
          match st.freed with
          | [] -> Ok ()
          | p :: _ when Heap.is_live st.heap p -> Ok () (* block recycled *)
          | p :: _ -> (
            match Heap.free st.heap p with
            | () -> Error (Printf.sprintf "double free of %#x accepted" p)
            | exception Heap.Error _ -> Ok ())) };
    { Sim.op_name = "write-u8";
      weight = 4;
      pre = (fun _ -> true);
      gen = (fun _ g -> [ gen_addr g; Prng.int g 256 ]);
      apply =
        (fun st args ->
          let a, v =
            match args with a :: v :: _ -> (a, v land 0xff) | _ -> (0, 0)
          in
          Sparse_mem.write_u8 st.mem a v;
          Hashtbl.replace st.bytes a v;
          Ok ()) };
    { Sim.op_name = "write-u64";
      weight = 2;
      pre = (fun _ -> true);
      gen = (fun _ g -> [ gen_addr g; Prng.int g 0x40000000 ]);
      apply =
        (fun st args ->
          let a, v = match args with a :: v :: _ -> (a, v) | _ -> (0, 0) in
          (* Spread the 30 generated bits over all 8 bytes so straddling
             writes exercise both chunks with nonzero data. *)
          let v64 = Int64.mul (Int64.of_int v) 0x01000193L in
          Sparse_mem.write_u64 st.mem a v64;
          for i = 0 to 7 do
            Hashtbl.replace st.bytes (a + i)
              (Int64.to_int (Int64.shift_right_logical v64 (8 * i)) land 0xff)
          done;
          Ok ()) };
    { Sim.op_name = "read-u8";
      weight = 3;
      pre = (fun _ -> true);
      gen = (fun _ g -> [ gen_addr g ]);
      apply =
        (fun st args ->
          let a = match args with a :: _ -> a | [] -> 0 in
          let got = Sparse_mem.read_u8 st.mem a in
          if got <> byte st a then
            Error
              (Printf.sprintf "read_u8 %#x = %d, model %d" a got (byte st a))
          else Ok ()) };
    { Sim.op_name = "read-u64";
      weight = 2;
      pre = (fun _ -> true);
      gen = (fun _ g -> [ gen_addr g ]);
      apply =
        (fun st args ->
          let a = match args with a :: _ -> a | [] -> 0 in
          let got = Sparse_mem.read_u64 st.mem a in
          let expect = ref 0L in
          for i = 7 downto 0 do
            expect :=
              Int64.logor (Int64.shift_left !expect 8)
                (Int64.of_int (byte st (a + i)))
          done;
          if got <> !expect then
            Error
              (Printf.sprintf "read_u64 %#x = %Ld, model %Ld" a got !expect)
          else Ok ()) };
    { Sim.op_name = "fill";
      weight = 1;
      pre = (fun _ -> true);
      gen = (fun _ g -> [ gen_addr g; Prng.int g 300; Prng.int g 256 ]);
      apply =
        (fun st args ->
          let a, len, v =
            match args with
            | a :: l :: v :: _ -> (a, l, v land 0xff)
            | _ -> (0, 0, 0)
          in
          Sparse_mem.fill st.mem a len v;
          for i = 0 to len - 1 do
            Hashtbl.replace st.bytes (a + i) v
          done;
          Ok ()) };
    { Sim.op_name = "recycle";
      weight = 1;
      pre = (fun _ -> true);
      gen = (fun _ g -> [ gen_addr g; Prng.int g Sparse_mem.chunk_size ]);
      apply =
        (fun st args ->
          (* Pool hygiene: release the (dirty) chunks, then force a fresh
             memory to materialize chunks — which reuses pooled pages — and
             check an untouched byte still reads as zero. *)
          let a, probe_off =
            match args with a :: o :: _ -> (a, o) | _ -> (0, 1)
          in
          Sparse_mem.release st.mem;
          st.mem <- Sparse_mem.create ();
          Hashtbl.reset st.bytes;
          Sparse_mem.write_u8 st.mem a 0x5A;
          Hashtbl.replace st.bytes a 0x5A;
          let b = (a / Sparse_mem.chunk_size * Sparse_mem.chunk_size) + probe_off in
          if b <> a && Sparse_mem.read_u8 st.mem b <> 0 then
            Error (Printf.sprintf "pooled page not zeroed at %#x" b)
          else Ok ()) } ]

let check st =
  if Heap.live_objects st.heap <> Hashtbl.length st.live then
    Some
      (Printf.sprintf "heap live count %d, model %d"
         (Heap.live_objects st.heap) (Hashtbl.length st.live))
  else
    Hashtbl.fold
      (fun p _ acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if Heap.is_live st.heap p then None
          else Some (Printf.sprintf "live pointer %#x lost" p))
      st.live None

let digest st =
  let h =
    Sim.digest_ints
      [ Heap.live_objects st.heap; Heap.live_bytes st.heap;
        Heap.total_allocs st.heap; Heap.total_frees st.heap ]
  in
  (* Order-independent fold over the byte model. *)
  let acc = ref 0L in
  Hashtbl.iter
    (fun a v -> acc := Int64.add !acc (Int64.of_int (((a * 31) + v) lxor (a lsr 7))))
    st.bytes;
  Int64.logxor h !acc

let alphabet () =
  Sim.Packed
    { Sim.name = "heap";
      ops;
      init =
        (fun ~seed ->
          let machine = Machine.create ~seed () in
          { machine;
            heap = Heap.create machine;
            live = Hashtbl.create 64;
            freed = [];
            mem = Sparse_mem.create ();
            bytes = Hashtbl.create 256 });
      check;
      digest;
      teardown =
        (fun st ->
          Sparse_mem.release st.mem;
          Sparse_mem.release (Machine.mem st.machine)) }
