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
      add p
    end
    else begin
      let p = take () in
      Heap.free h p;
      Ref_objects.remove model p;
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
    freed := []
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
  Alcotest.(check bool) "grew past 8,192 live objects" true (!peak > 8_192)

let test_heap_malloc_charges_clock () =
  let h = mk_heap () in
  let m = Heap.machine h in
  let before = Clock.cycles (Machine.clock m) in
  ignore (Heap.malloc h 8);
  Alcotest.(check int) "malloc_base charged" (before + Cost.malloc_base)
    (Clock.cycles (Machine.clock m))

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
    Alcotest.test_case "heap live walk is slot order" `Quick test_heap_iter_live_order ]
