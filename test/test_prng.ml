(* Unit and property tests for the per-thread PRNG. *)

let test_determinism () =
  let a = Prng.create ~seed:7 in
  let b = Prng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:7 in
  let b = Prng.create ~seed:8 in
  Alcotest.(check bool) "different seeds differ" true (Prng.bits64 a <> Prng.bits64 b)

let test_copy_preserves () =
  let a = Prng.create ~seed:3 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a) (Prng.bits64 b)

let test_split_diverges () =
  let a = Prng.create ~seed:3 in
  let b = Prng.split a in
  let xs = List.init 20 (fun _ -> Prng.bits64 a) in
  let ys = List.init 20 (fun _ -> Prng.bits64 b) in
  Alcotest.(check bool) "split stream differs" true (xs <> ys)

let test_fork_deterministic () =
  let stream label =
    let parent = Prng.create ~seed:11 in
    let g = Prng.fork parent label in
    List.init 20 (fun _ -> Prng.bits64 g)
  in
  Alcotest.(check bool) "same (parent, label): same substream" true
    (stream "sim:heap" = stream "sim:heap");
  Alcotest.(check bool) "different labels: different substreams" true
    (stream "sim:heap" <> stream "sim:store")

let test_fork_advances_parent_once () =
  let a = Prng.create ~seed:11 and b = Prng.create ~seed:11 in
  ignore (Prng.fork a "anything");
  ignore (Prng.bits64 b);
  Alcotest.(check int64) "parent advanced exactly one draw" (Prng.bits64 a)
    (Prng.bits64 b)

let test_fork_independent_of_parent_continuation () =
  (* The substream must not share state with the parent: draws on one do
     not perturb the other. *)
  let parent = Prng.create ~seed:3 in
  let g = Prng.fork parent "child" in
  let head = Prng.bits64 g in
  let parent' = Prng.create ~seed:3 in
  let g' = Prng.fork parent' "child" in
  for _ = 1 to 50 do
    ignore (Prng.bits64 parent')
  done;
  Alcotest.(check int64) "substream unaffected by parent draws" head
    (Prng.bits64 g');
  (* And statistically disjoint from the parent's own continuation. *)
  let xs = List.init 20 (fun _ -> Prng.bits64 parent) in
  let ys = List.init 20 (fun _ -> Prng.bits64 g) in
  Alcotest.(check bool) "fork stream differs from parent stream" true (xs <> ys)

let test_int_bound_edge () =
  let g = Prng.create ~seed:1 in
  for _ = 1 to 100 do
    Alcotest.(check int) "bound 1 is always 0" 0 (Prng.int g 1)
  done

let test_int_rejects_nonpositive () =
  let g = Prng.create ~seed:1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_below_percent_extremes () =
  let g = Prng.create ~seed:1 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0 never passes" false (Prng.below_percent g 0.0);
    Alcotest.(check bool) "p=1 always passes" true (Prng.below_percent g 1.0);
    Alcotest.(check bool) "negative never passes" false (Prng.below_percent g (-0.5))
  done

let test_below_percent_rate () =
  let g = Prng.create ~seed:42 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.below_percent g 0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f within 0.02 of 0.25" rate)
    true
    (abs_float (rate -. 0.25) < 0.02)

let test_float_range () =
  let g = Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let f = Prng.float g in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_bool_balance () =
  let g = Prng.create ~seed:17 in
  let t = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.bool g then incr t
  done;
  Alcotest.(check bool) "roughly balanced" true (!t > 4_500 && !t < 5_500)

(* [advance g n] steps the state as [n] draws would: the next draws of
   both generators agree, for n = 0..300 from random seeds. *)
let test_advance () =
  let seeds = Prng.create ~seed:2024 in
  for _ = 1 to 20 do
    let seed = Prng.int seeds max_int in
    for n = 0 to 300 do
      let a = Prng.create ~seed and b = Prng.create ~seed in
      Prng.advance a n;
      for _ = 1 to n do
        ignore (Prng.bits64 b)
      done;
      for k = 1 to 4 do
        Alcotest.(check int64) (Printf.sprintf "seed %d, n %d, draw %d" seed n k)
          (Prng.bits64 b) (Prng.bits64 a)
      done
    done
  done

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int stays in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let g = Prng.create ~seed in
      let v = Prng.int g bound in
      v >= 0 && v < bound)

let prop_canary_nonzero =
  QCheck.Test.make ~name:"canary64 never zero" ~count:300 QCheck.small_int
    (fun seed ->
      let g = Prng.create ~seed in
      List.for_all (fun _ -> Prng.canary64 g <> 0L) (List.init 10 Fun.id))

let suite =
  [ Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy preserves state" `Quick test_copy_preserves;
    Alcotest.test_case "split diverges" `Quick test_split_diverges;
    Alcotest.test_case "fork: label-salted determinism" `Quick
      test_fork_deterministic;
    Alcotest.test_case "fork: parent advances one draw" `Quick
      test_fork_advances_parent_once;
    Alcotest.test_case "fork: substream independence" `Quick
      test_fork_independent_of_parent_continuation;
    Alcotest.test_case "int bound 1" `Quick test_int_bound_edge;
    Alcotest.test_case "int rejects bound 0" `Quick test_int_rejects_nonpositive;
    Alcotest.test_case "advance = n draws" `Quick test_advance;
    Alcotest.test_case "below_percent extremes" `Quick test_below_percent_extremes;
    Alcotest.test_case "below_percent rate" `Quick test_below_percent_rate;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "bool balance" `Quick test_bool_balance;
    QCheck_alcotest.to_alcotest prop_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_canary_nonzero ]
