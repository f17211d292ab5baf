(* Tests for the allocator substrate: size classes and the heap. *)

let test_size_classes () =
  Alcotest.(check int) "min request" 16 (Size_class.block_size (Size_class.classify 1));
  Alcotest.(check int) "zero treated as one" 16
    (Size_class.block_size (Size_class.classify 0));
  Alcotest.(check int) "exact class" 64 (Size_class.block_size (Size_class.classify 64));
  Alcotest.(check int) "rounds to 16-byte step" 80
    (Size_class.block_size (Size_class.classify 65));
  Alcotest.(check int) "largest small" 4096
    (Size_class.block_size (Size_class.classify 4096));
  (match Size_class.classify 4097 with
  | Size_class.Large n -> Alcotest.(check int) "large rounded" 4112 n
  | Size_class.Small _ -> Alcotest.fail "4097 must be large");
  Alcotest.check_raises "negative" (Invalid_argument "Size_class.classify: negative size")
    (fun () -> ignore (Size_class.classify (-1)))

let test_size_class_index () =
  let index size =
    match Size_class.classify size with
    | Size_class.Small n -> Some (Size_class.small_index n)
    | Size_class.Large _ -> None
  in
  Alcotest.(check (option int)) "first index" (Some 0) (index 16);
  Alcotest.(check (option int)) "last index" (Some (Size_class.num_small_classes - 1))
    (index 4096);
  Alcotest.(check (option int)) "large has none" None (index 10000)

let prop_block_covers_request =
  QCheck.Test.make ~name:"block_size >= request, 16-aligned" ~count:500
    QCheck.(int_range 0 100_000)
    (fun size ->
      let b = Size_class.block_size (Size_class.classify size) in
      b >= max 1 size && b mod 16 = 0)

let mk_heap () =
  let m = Machine.create () in
  Heap.create m

let test_heap_basic () =
  let h = mk_heap () in
  let a = Heap.malloc h 100 in
  Alcotest.(check bool) "live" true (Heap.is_live h a);
  Alcotest.(check (option int)) "size recorded" (Some 100) (Heap.size_of h a);
  Alcotest.(check bool) "usable >= requested" true
    (Option.get (Heap.usable_size h a) >= 100);
  Alcotest.(check int) "one live object" 1 (Heap.live_objects h);
  Alcotest.(check int) "live bytes" 100 (Heap.live_bytes h);
  Heap.free h a;
  Alcotest.(check bool) "freed" false (Heap.is_live h a);
  Alcotest.(check int) "none live" 0 (Heap.live_objects h)

let test_heap_alignment () =
  let h = mk_heap () in
  for _ = 1 to 20 do
    let p = Heap.malloc h 33 in
    Alcotest.(check int) "16-aligned" 0 (p mod 16)
  done

let test_heap_reuse () =
  let h = mk_heap () in
  let a = Heap.malloc h 64 in
  Heap.free h a;
  let b = Heap.malloc h 64 in
  Alcotest.(check int) "freed block reused (LIFO)" a b

let test_heap_double_free () =
  let h = mk_heap () in
  let a = Heap.malloc h 10 in
  Heap.free h a;
  (try
     Heap.free h a;
     Alcotest.fail "double free must raise"
   with Heap.Error _ -> ());
  (try
     Heap.free h 0xDEAD000;
     Alcotest.fail "foreign free must raise"
   with Heap.Error _ -> ());
  Heap.free h 0 (* free(NULL) is a no-op *)

let test_heap_peak_tracking () =
  let h = mk_heap () in
  let a = Heap.malloc h 1000 in
  let b = Heap.malloc h 2000 in
  Heap.free h a;
  Alcotest.(check int) "peak survives frees" 3000 (Heap.peak_live_bytes h);
  Alcotest.(check int) "live is current" 2000 (Heap.live_bytes h);
  Alcotest.(check int) "counts" 2 (Heap.total_allocs h);
  Alcotest.(check int) "frees" 1 (Heap.total_frees h);
  Heap.free h b

let test_heap_iter_live () =
  let h = mk_heap () in
  let a = Heap.malloc h 24 in
  let b = Heap.malloc h 48 in
  let c = Heap.malloc h 72 in
  Heap.free h b;
  let seen = ref [] in
  Heap.iter_live (fun ~addr ~size -> seen := (addr, size) :: !seen) h;
  let sorted = List.sort compare !seen in
  Alcotest.(check (list (pair int int))) "live walk"
    (List.sort compare [ (a, 24); (c, 72) ])
    sorted

(* [iter_live] walks slots: allocation order, except that [free] moves
   the last slot into the freed one. *)
let test_heap_iter_live_order () =
  let h = mk_heap () in
  let walk () =
    let seen = ref [] in
    Heap.iter_live (fun ~addr ~size:_ -> seen := addr :: !seen) h;
    List.rev !seen
  in
  let a = Heap.malloc h 24 in
  let b = Heap.malloc h 48 in
  let c = Heap.malloc h 72 in
  let d = Heap.malloc h 96 in
  Alcotest.(check (list int)) "allocation order" [ a; b; c; d ] (walk ());
  Heap.free h b;
  Alcotest.(check (list int)) "free b: d takes its slot" [ a; d; c ] (walk ());
  let e = Heap.malloc h 16 in
  Alcotest.(check (list int)) "a new object goes last" [ a; d; c; e ] (walk ());
  Heap.free h e;
  Alcotest.(check (list int)) "free the last slot" [ a; d; c ] (walk ());
  Heap.free h a;
  Alcotest.(check (list int)) "free the first slot" [ c; d ] (walk ())

(* A heap whose object table grew past 8,192 entries hands it on when its
   memory is released; the next heap must walk its objects in exactly the
   order of a heap built on a never-recycled table. *)
let test_heap_recycling_unobservable () =
  let m1 = Machine.create () in
  let h1 = Heap.create m1 in
  for _ = 1 to 9_000 do
    ignore (Heap.malloc h1 16)
  done;
  Sparse_mem.release (Machine.mem m1);
  let m2 = Machine.create () in
  let recycled = ref None in
  let major =
    Test_hotpath.direct_major_words (fun () -> recycled := Some (Heap.create m2))
  in
  let recycled = Option.get !recycled in
  if Test_hotpath.native then
    Alcotest.(check (float 0.0)) "recycled table: no major words" 0.0 major;
  let fresh = Heap.create (Machine.create ()) in
  let walk h =
    let g = Prng.create ~seed:9 in
    let live = Array.make 64 0 in
    for i = 0 to 999 do
      let slot = Prng.int g 64 in
      if live.(slot) <> 0 then Heap.free h live.(slot);
      live.(slot) <- Heap.malloc h (1 + Prng.int g (if i mod 50 = 0 then 9000 else 200))
    done;
    let seen = ref [] in
    Heap.iter_live (fun ~addr ~size -> seen := (addr, size) :: !seen) h;
    !seen
  in
  let order = walk fresh in
  Alcotest.(check int) "64 live objects" 64 (List.length order);
  Alcotest.(check (list (pair int int))) "iter_live order" order (walk recycled);
  (* The released heap keeps working, on a table of its own. *)
  Alcotest.(check int) "released heap forgets its objects" 0 (Heap.live_objects h1);
  let p = Heap.malloc h1 24 in
  Alcotest.(check (option int)) "released heap allocates" (Some 24) (Heap.size_of h1 p);
  Alcotest.(check bool) "successor does not see it" false (Heap.is_live recycled p);
  Heap.free h1 p;
  Alcotest.(check int) "successor untouched" 64 (Heap.live_objects recycled)

(* A request whose rounding or break advance would pass [max_int] is
   refused with [Heap.Error], like a negative one, and leaves the heap as
   it was. *)
let test_heap_size_overflow () =
  let h = mk_heap () in
  let refused name f =
    match f () with
    | _ -> Alcotest.fail (name ^ ": expected Heap.Error")
    | exception Heap.Error _ -> ()
  in
  let a = Heap.malloc h 24 in
  refused "malloc (max_int - 20)" (fun () -> Heap.malloc h (max_int - 20));
  refused "malloc max_int" (fun () -> Heap.malloc h max_int);
  refused "malloc, negative size" (fun () -> Heap.malloc h (-5));
  Alcotest.(check int) "one live object" 1 (Heap.live_objects h);
  Alcotest.(check int) "live bytes" 24 (Heap.live_bytes h);
  Alcotest.(check (option int)) "object untouched" (Some 24) (Heap.size_of h a);
  (* The break never wrapped: a huge request that fits gets a positive
     address, and a second one that would pass [max_int] is refused. *)
  let p = Heap.malloc h (1 lsl 61) in
  Alcotest.(check bool) "positive address" true (p > 0);
  refused "break passes max_int" (fun () -> Heap.malloc h (1 lsl 61));
  Alcotest.(check int) "two live objects" 2 (Heap.live_objects h)

(* The flat object table against the generic table it replaced: a
   [Hashtbl.Make] keyed by address with [Hashtbl.hash], created at 4,096
   buckets and given the [replace]/[remove] calls the heap made on it.
   [iter_live] walks the same set of objects (in its own order).  A
   seeded stream of malloc and free grows past 8,192
   live objects, so the model's bucket count doubles, and then shrinks
   again. *)
module Ref_objects = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let test_heap_model () =
  let h = mk_heap () in
  let model = Ref_objects.create 4096 (* addr -> (size, usable) *) in
  (* The slot order [iter_live] walks: allocation appends, [free] moves the
     last slot into the hole. *)
  let order = Array.make 20_000 0 and n_order = ref 0 in
  let slot_of = Ref_objects.create 4096 in
  let order_add p =
    order.(!n_order) <- p;
    Ref_objects.replace slot_of p !n_order;
    incr n_order
  in
  let order_remove p =
    let i = Ref_objects.find slot_of p and last = !n_order - 1 in
    if i <> last then begin
      order.(i) <- order.(last);
      Ref_objects.replace slot_of order.(i) i
    end;
    Ref_objects.remove slot_of p;
    n_order := last
  in
  let max_pages = ref 0 in
  let g = Prng.create ~seed:21 in
  let pool = Array.make 20_000 0 and live = ref 0 in
  let freed = ref [] in
  let add p = pool.(!live) <- p; incr live in
  let take () =
    let i = Prng.int g !live in
    let p = pool.(i) in
    decr live;
    pool.(i) <- pool.(!live);
    p
  in
  let block size = Size_class.block_size (Size_class.classify size) in
  let size () = if Prng.int g 40 = 0 then 4000 + Prng.int g 6000 else Prng.int g 300 in
  let step alloc_pct =
    let r = Prng.int g 100 in
    if !live = 0 || r < alloc_pct then begin
      let s = size () in
      let p = Heap.malloc h s in
      Ref_objects.replace model p (s, block s);
      order_add p;
      add p
    end
    else begin
      let p = take () in
      Heap.free h p;
      Ref_objects.remove model p;
      order_remove p;
      freed := p :: !freed
    end
  in
  let peak = ref 0 in
  let check tag =
    let walk = ref [] and expected = ref [] in
    Heap.iter_live (fun ~addr ~size -> walk := (addr, size) :: !walk) h;
    Ref_objects.iter (fun addr (size, _) -> expected := (addr, size) :: !expected) model;
    Alcotest.(check int) (tag ^ ": live_objects") (Ref_objects.length model)
      (Heap.live_objects h);
    Alcotest.(check (list (pair int int))) (tag ^ ": iter_live set")
      (List.sort compare !expected) (List.sort compare !walk);
    Ref_objects.iter
      (fun addr (size, usable) ->
        if Heap.size_of h addr <> Some size || Heap.usable_size h addr <> Some usable then
          Alcotest.failf "%s: object 0x%x: size_of / usable_size" tag addr)
      model;
    List.iter
      (fun p ->
        if not (Ref_objects.mem model p) && Heap.size_of h p <> None then
          Alcotest.failf "%s: freed 0x%x still has a size" tag p)
      !freed;
    freed := [];
    Alcotest.(check (list int)) (tag ^ ": iter_live slot order")
      (Array.to_list (Array.sub order 0 !n_order))
      (List.rev_map fst !walk);
    let pages = Hashtbl.create 64 in
    Ref_objects.iter
      (fun addr _ -> Hashtbl.replace pages ((addr - Machine.heap_base) lsr 16) ())
      model;
    max_pages := max !max_pages (Hashtbl.length pages)
  in
  List.iteri
    (fun phase (ops, alloc_pct) ->
      for i = 1 to ops do
        step alloc_pct;
        peak := max !peak !live;
        if i mod 2_500 = 0 then check (Printf.sprintf "phase %d, op %d" phase i)
      done;
      check (Printf.sprintf "end of phase %d" phase))
    [ (3_000, 40); (12_000, 85); (14_000, 20) ];
  Alcotest.(check bool) "grew past 8,192 live objects" true (!peak > 8_192);
  Alcotest.(check bool) "live objects on at least 8 pages of 64 KiB" true (!max_pages >= 8)

let test_heap_malloc_charges_clock () =
  let h = mk_heap () in
  let m = Heap.machine h in
  let before = Clock.cycles (Machine.clock m) in
  ignore (Heap.malloc h 8);
  Alcotest.(check int) "malloc_base charged" (before + Cost.malloc_base)
    (Clock.cycles (Machine.clock m))

(* [f ()] and the bytes the OCaml heap handed out while it ran
   ([Gc.counters] is exact). *)
let allocated_bytes f =
  let m0, p0, j0 = Gc.counters () in
  let r = f () in
  let m1, p1, j1 = Gc.counters () in
  (r, float_of_int (Sys.word_size / 8) *. (m1 -. m0 +. (j1 -. j0) -. (p1 -. p0)))

(* Whether [f ()] built no page table: a table is a block the minor heap
   does not admit. *)
let builds_no_table name f =
  let w = Test_hotpath.direct_major_words f in
  if Test_hotpath.native then Alcotest.(check (float 0.0)) name 0.0 w

(* Past the dense window (the break's first 256 MiB), pages are found
   through a hashed index: every entry point works there, and the map's
   memory follows the pages that hold objects, not how far the break
   reached. *)
let test_heap_far_pages () =
  (* The same 3,000 objects on a fresh store, in the first megabytes of the
     break or past a 1 TiB object. *)
  let place ~far =
    (* Empty the domain's spare, so that the next heap's store is fresh. *)
    ignore (Heap.create (Machine.create ()));
    let h = mk_heap () in
    (* A large block: no small class has a chunk below the huge object. *)
    let near = Heap.malloc h 20_000 in
    let huge = if far then Heap.malloc h (1 lsl 40) else 0 in
    let g = Prng.create ~seed:4 in
    let sizes =
      Array.init 3_000 (fun _ ->
          if Prng.int g 10 = 0 then 4097 + Prng.int g 12_000 else 1 + Prng.int g 400)
    in
    let ptrs = Array.make 3_000 0 in
    (* Finalisers of earlier tests would allocate inside the window. *)
    Gc.full_major ();
    let (), bytes =
      allocated_bytes (fun () ->
          for i = 0 to 2_999 do
            ptrs.(i) <- Heap.malloc h sizes.(i)
          done)
    in
    (h, near, huge, Array.map2 (fun p s -> (p, s)) ptrs sizes, bytes)
  in
  let _, _, _, _, near_bytes = place ~far:false in
  let h, near, huge, ptrs, bytes = place ~far:true in
  let first = Array.fold_left (fun m (p, _) -> min m p) max_int ptrs
  and last = Array.fold_left (fun m (p, _) -> max m p) 0 ptrs in
  Alcotest.(check bool) "objects start past the first GiB" true
    (first - Machine.heap_base >= 1 lsl 30);
  Alcotest.(check bool) "objects span several 64 KiB pages" true ((last - first) lsr 16 >= 8);
  (* The hashed index costs a few kilobytes more than the dense array. *)
  if bytes > near_bytes +. 65_536. then
    Alcotest.failf "%.0f bytes allocated past the first GiB, %.0f below it" bytes near_bytes;
  Array.iter
    (fun (p, s) ->
      if not (Heap.is_live h p) || Heap.size_of h p <> Some s
         || Heap.usable_size h p <> Some (Size_class.block_bytes s)
      then Alcotest.failf "far object 0x%x: is_live / size_of / usable_size" p)
    ptrs;
  Alcotest.(check (option int)) "near object" (Some 20_000) (Heap.size_of h near);
  Alcotest.(check (option int)) "huge object" (Some (1 lsl 40)) (Heap.size_of h huge);
  Array.iteri (fun i (p, _) -> if i mod 2 = 0 then Heap.free h p) ptrs;
  Array.iteri
    (fun i (p, s) ->
      let expect = if i mod 2 = 0 then None else Some s in
      if Heap.size_of h p <> expect || Heap.is_live h p <> (i mod 2 = 1) then
        Alcotest.failf "far object 0x%x after freeing every other one" p)
    ptrs;
  (* The freed blocks are reused: the map grows no further. *)
  builds_no_table "refilling freed blocks" (fun () ->
      Array.iteri (fun i (_, s) -> if i mod 2 = 0 then ignore (Heap.malloc h s)) ptrs);
  Alcotest.(check int) "live objects" (2 + 3_000) (Heap.live_objects h);
  Heap.free h huge;
  Alcotest.(check bool) "huge object freed" false (Heap.is_live h huge)

(* Every bad free raises the same message, naming the pointer, and leaves
   the heap as it was. *)
let test_heap_bad_frees () =
  let h = mk_heap () in
  let m = Heap.machine h in
  let a = Heap.malloc h 100 in
  let b = Heap.malloc h 24 in
  let freed = Heap.malloc h 200 in
  Heap.free h freed;
  let far = Heap.malloc h (1 lsl 40) in
  let c = Heap.malloc h 5_000 in
  let bad name p =
    Alcotest.check_raises name
      (Heap.Error (Printf.sprintf "free: invalid or already-freed pointer 0x%x" p))
      (fun () -> Heap.free h p)
  in
  bad "interior pointer" (a + 16);
  bad "interior pointer, far page" (c + 16);
  bad "unaligned pointer" (a + 3);
  bad "below the heap base" (Machine.heap_base - 16);
  bad "low address" 0x1000;
  bad "negative address" (-16);
  bad "past the break" (Machine.brk m);
  bad "far past the break" (Machine.brk m + (1 lsl 40));
  bad "double free" freed;
  bad "largest address" (max_int land lnot 15);
  Alcotest.(check int) "four live objects" 4 (Heap.live_objects h);
  List.iter
    (fun (p, s) -> Alcotest.(check (option int)) "object untouched" (Some s) (Heap.size_of h p))
    [ (a, 100); (b, 24); (far, 1 lsl 40); (c, 5_000) ]

(* A recycled store holds no granule of the execution that released it,
   near or far, live or freed, and its page tables are handed out again. *)
let test_heap_recycled_pages_clean () =
  let m1 = Machine.create () in
  let h1 = Heap.create m1 in
  let g = Prng.create ~seed:8 in
  let ptrs = Array.init 4_000 (fun _ -> Heap.malloc h1 (1 + Prng.int g 3_000)) in
  ignore (Heap.malloc h1 (1 lsl 40));
  let far = Array.init 500 (fun _ -> Heap.malloc h1 (1 + Prng.int g 3_000)) in
  Array.iteri (fun i p -> if i mod 3 = 0 then Heap.free h1 p) ptrs;
  Array.iteri (fun i p -> if i mod 3 = 0 then Heap.free h1 p) far;
  Alcotest.(check bool) "first execution reaches past the first GiB" true
    (Array.exists (fun p -> p - Machine.heap_base >= 1 lsl 30) far);
  let lo = Array.fold_left min max_int ptrs and hi = Array.fold_left max 0 ptrs in
  Alcotest.(check bool) "first execution spans many pages" true ((hi - lo) lsr 16 >= 16);
  Sparse_mem.release (Machine.mem m1);
  let m2 = Machine.create () in
  let h2 = Heap.create m2 in
  let next = ref h2 in
  let stale name p =
    let h = !next in
    if Heap.is_live h p || Heap.size_of h p <> None || Heap.usable_size h p <> None then
      Alcotest.failf "%s 0x%x is live in the next heap" name p
  in
  Array.iter (stale "earlier object") ptrs;
  Array.iter (stale "earlier object") far;
  (* The next heap carves the same addresses again: each maps to its own
     object only. *)
  let ptrs2 = Array.make 4_000 0 in
  builds_no_table "the next heap's objects" (fun () ->
      for i = 0 to 3_999 do
        ptrs2.(i) <- Heap.malloc h2 (1 + (i mod 50))
      done);
  Array.iteri
    (fun i p ->
      if Heap.size_of h2 p <> Some (1 + (i mod 50)) then
        Alcotest.failf "object %d at 0x%x: size_of" i p)
    ptrs2;
  Alcotest.(check int) "live objects" 4_000 (Heap.live_objects h2);
  let mine = Hashtbl.create 4_096 in
  Array.iter (fun p -> Hashtbl.replace mine p ()) ptrs2;
  Array.iter
    (fun p -> if not (Hashtbl.mem mine p) then stale "earlier object" p)
    (Array.append ptrs far);
  Array.iter (Heap.free h2) ptrs2;
  Alcotest.(check int) "all freed" 0 (Heap.live_objects h2);
  (* A far page's table handed out again for a near page: the far object
     and the near one start at the same offset in their 16 KiB pages. *)
  Sparse_mem.release (Machine.mem m2);
  let m3 = Machine.create () in
  let h3 = Heap.create m3 in
  ignore (Heap.malloc h3 (1 lsl 40));
  let x = Heap.malloc h3 5_000 in
  Alcotest.(check bool) "far object" true (x - Machine.heap_base = 1 lsl 40);
  Sparse_mem.release (Machine.mem m3);
  let h4 = Heap.create (Machine.create ()) in
  next := h4;
  ignore (Heap.malloc h4 16_384);
  let y = Heap.malloc h4 5_000 in
  Alcotest.(check bool) "near object, same offset" true
    ((x - y) land (16_384 - 1) = 0);
  stale "far object of the released heap" x;
  Alcotest.(check (option int)) "near object" (Some 5_000) (Heap.size_of h4 y)

(* Property: random malloc/free interleavings keep live objects disjoint
   and within their blocks. *)
let prop_no_overlap =
  QCheck.Test.make ~name:"live objects never overlap" ~count:60
    QCheck.(list (pair bool (int_range 1 300)))
    (fun ops ->
      let h = mk_heap () in
      let live = ref [] in
      List.iter
        (fun (is_alloc, size) ->
          if is_alloc || !live = [] then begin
            let p = Heap.malloc h size in
            live := (p, size) :: !live
          end
          else begin
            match !live with
            | (p, _) :: rest ->
              Heap.free h p;
              live := rest
            | [] -> ()
          end)
        ops;
      (* check pairwise disjointness of [p, p + usable) *)
      let ranges =
        List.map (fun (p, _) -> (p, p + Option.get (Heap.usable_size h p))) !live
      in
      let rec pairwise = function
        | [] -> true
        | (s1, e1) :: rest ->
          List.for_all (fun (s2, e2) -> e1 <= s2 || e2 <= s1) rest && pairwise rest
      in
      pairwise ranges)

let prop_free_then_size_none =
  QCheck.Test.make ~name:"size_of reflects liveness" ~count:100
    QCheck.(int_range 1 5000)
    (fun size ->
      let h = mk_heap () in
      let p = Heap.malloc h size in
      let before = Heap.size_of h p = Some size in
      Heap.free h p;
      before && Heap.size_of h p = None)

let suite =
  [ Alcotest.test_case "size classes" `Quick test_size_classes;
    Alcotest.test_case "size class indexing" `Quick test_size_class_index;
    QCheck_alcotest.to_alcotest prop_block_covers_request;
    Alcotest.test_case "heap basics" `Quick test_heap_basic;
    Alcotest.test_case "heap alignment" `Quick test_heap_alignment;
    Alcotest.test_case "heap block reuse" `Quick test_heap_reuse;
    Alcotest.test_case "heap double/foreign free" `Quick test_heap_double_free;
    Alcotest.test_case "heap peak tracking" `Quick test_heap_peak_tracking;
    Alcotest.test_case "heap live walk" `Quick test_heap_iter_live;
    Alcotest.test_case "heap size arithmetic overflow" `Quick test_heap_size_overflow;
    Alcotest.test_case "heap flat table vs Hashtbl model" `Quick test_heap_model;
    Alcotest.test_case "heap clock charge" `Quick test_heap_malloc_charges_clock;
    Alcotest.test_case "heap recycling unobservable" `Quick
      test_heap_recycling_unobservable;
    QCheck_alcotest.to_alcotest prop_no_overlap;
    QCheck_alcotest.to_alcotest prop_free_then_size_none;
    Alcotest.test_case "heap live walk is slot order" `Quick test_heap_iter_live_order;
    Alcotest.test_case "heap pages past the dense window" `Quick test_heap_far_pages;
    Alcotest.test_case "heap bad frees" `Quick test_heap_bad_frees;
    Alcotest.test_case "heap recycled store: no stale granule" `Quick
      test_heap_recycled_pages_clean ]
