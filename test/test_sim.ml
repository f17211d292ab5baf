(* The simulation harness itself: deterministic generation, stepwise
   invariant checking, automatic shrinking, repro records and bit-identical
   replay.

   A tiny counter alphabet exercises the engine directly (exec semantics,
   precondition skipping, hash determinism); the planted-bug alphabets
   (store-buggy-merge, fleet-evidence-bug) pin that shrinking converges to
   a minimal counterexample of at most 6 operations — the seeded shrink
   regression. *)

(* ---------- a minimal, fully transparent alphabet ---------- *)

type counter = { mutable total : int; mutable primed : bool }

let counter_alphabet : counter Sim.alphabet =
  { Sim.name = "counter";
    ops =
      [ { Sim.op_name = "inc";
          weight = 3;
          pre = (fun _ -> true);
          gen = (fun _ g -> [ Prng.int g 16 ]);
          apply =
            (fun c args ->
              c.total <- c.total + (match args with n :: _ -> n mod 16 | [] -> 0);
              Ok ()) };
        { Sim.op_name = "prime";
          weight = 1;
          pre = (fun c -> not c.primed);
          gen = (fun _ _ -> []);
          apply =
            (fun c _ ->
              c.primed <- true;
              Ok ()) };
        { Sim.op_name = "fire";
          weight = 1;
          pre = (fun c -> c.primed);
          gen = (fun _ _ -> []);
          apply =
            (fun c _ ->
              c.primed <- false;
              c.total <- c.total + 1;
              Ok ()) } ];
    init = (fun ~seed:_ -> { total = 0; primed = false });
    check =
      (fun c -> if c.total >= 30 then Some "counter reached 30" else None);
    digest = (fun c -> Int64.of_int ((c.total * 2) + Bool.to_int c.primed));
    teardown = (fun _ -> ()) }

let step op args = { Sim.op = op; args }

let test_exec_deterministic () =
  let steps = [ step "inc" [ 7 ]; step "prime" []; step "fire" [] ] in
  let a = Sim.exec counter_alphabet ~seed:1 steps in
  let b = Sim.exec counter_alphabet ~seed:1 steps in
  Alcotest.(check bool) "no failure" true (a.Sim.failed = None);
  Alcotest.(check int64) "same hash" a.Sim.hash b.Sim.hash;
  Alcotest.(check int) "all steps applied" 3 a.Sim.applied;
  (* Different recorded args change the trace hash: arguments are part of
     what "bit-identical" certifies. *)
  let c = Sim.exec counter_alphabet ~seed:1 [ step "inc" [ 8 ] ] in
  Alcotest.(check bool) "different args, different hash" true
    (c.Sim.hash <> Sim.(exec counter_alphabet ~seed:1 [ step "inc" [ 7 ] ]).hash)

let test_exec_skips_unsatisfied_pre () =
  (* [fire] without a prior [prime] is skipped, not an error — shrinking
     may remove the op that established a precondition. *)
  let r = Sim.exec counter_alphabet ~seed:1 [ step "fire" []; step "inc" [ 3 ] ] in
  Alcotest.(check bool) "no failure" true (r.Sim.failed = None);
  Alcotest.(check int) "only inc applied" 1 r.Sim.applied

let test_exec_detects_violation () =
  let steps = List.init 5 (fun _ -> step "inc" [ 15 ]) in
  let r = Sim.exec counter_alphabet ~seed:1 steps in
  (match r.Sim.failed with
  | Some (i, msg) ->
    Alcotest.(check int) "fails at the second inc" 1 i;
    Alcotest.(check string) "message" "counter reached 30" msg
  | None -> Alcotest.fail "violation not detected")

let test_run_finds_and_shrinks () =
  match Sim.run counter_alphabet ~seed:1 ~runs:50 ~ops:40 with
  | [] -> Alcotest.fail "counter bug never found"
  | f :: _ ->
    Alcotest.(check string) "alphabet recorded" "counter" f.Sim.alphabet;
    Alcotest.(check bool)
      (Printf.sprintf "shrunk to %d ops (from %d)" (List.length f.Sim.steps)
         f.Sim.shrunk_from)
      true
      (List.length f.Sim.steps <= 3);
    (* Every kept step contributes: the shrunk sequence still only holds
       inc ops whose sum crosses the bound. *)
    let sum =
      List.fold_left
        (fun acc (s : Sim.step) ->
          acc + (match s.Sim.args with n :: _ -> n mod 16 | [] -> 1))
        0 f.Sim.steps
    in
    Alcotest.(check bool) "minimal: sum barely crosses 30" true (sum >= 30 && sum - 30 < 16)

(* ---------- determinism of a whole sweep ---------- *)

let test_sweep_deterministic () =
  let once () =
    match
      Sim.run_packed
        (Sim_store.alphabet ~buggy_merge:true ())
        ~seed:1 ~runs:20 ~ops:60
    with
    | [] -> Alcotest.fail "planted merge bug never found"
    | f :: _ -> f
  in
  let a = once () and b = once () in
  Alcotest.(check bool) "same seed, same counterexample" true (a = b)

(* ---------- seeded shrink regression: planted bugs stay minimal ---------- *)

let shrunk_failure pack =
  match Sim.run_packed pack ~seed:1 ~runs:20 ~ops:60 with
  | [] -> Alcotest.fail "planted bug never found"
  | f :: _ -> f

let test_planted_merge_bug_shrinks () =
  let f = shrunk_failure (Sim_store.alphabet ~buggy_merge:true ()) in
  Alcotest.(check bool)
    (Printf.sprintf "minimal repro has %d ops (<= 6), shrunk from %d"
       (List.length f.Sim.steps) f.Sim.shrunk_from)
    true
    (List.length f.Sim.steps <= 6);
  (* The repro must actually exercise the bug: a merge is present. *)
  Alcotest.(check bool) "repro contains a merge" true
    (List.exists (fun (s : Sim.step) -> s.Sim.op = "merge") f.Sim.steps)

let test_planted_respond_bug_shrinks () =
  let f = shrunk_failure (Sim_respond.alphabet ~plant:true ()) in
  Alcotest.(check bool)
    (Printf.sprintf "minimal repro has %d ops (<= 6), shrunk from %d"
       (List.length f.Sim.steps) f.Sim.shrunk_from)
    true
    (List.length f.Sim.steps <= 6);
  (* The repro must walk the whole conviction pipeline: evidence hits
     crossing the threshold, then a patch-mode allocation exposing the
     lost store write. *)
  Alcotest.(check bool) "repro convicts a context" true
    (List.exists (fun (s : Sim.step) -> s.Sim.op = "convict-context")
       f.Sim.steps);
  Alcotest.(check bool) "repro applies a patch" true
    (List.exists (fun (s : Sim.step) -> s.Sim.op = "apply-patch") f.Sim.steps)

let test_respond_alphabet_holds () =
  (* The unplanted respond alphabet must hold its invariants across a
     sweep — every oblivious overflow redirected, every conviction
     honoured. *)
  match Sim.run_packed (Sim_respond.alphabet ()) ~seed:1 ~runs:10 ~ops:40 with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "respond alphabet violated: %s (%d steps)" f.Sim.message
      (List.length f.Sim.steps)

let test_planted_fleet_bug_shrinks () =
  let f = shrunk_failure (Sim_fleet.alphabet ~plant:true ()) in
  Alcotest.(check bool)
    (Printf.sprintf "minimal repro has %d ops (<= 6), shrunk from %d"
       (List.length f.Sim.steps) f.Sim.shrunk_from)
    true
    (List.length f.Sim.steps <= 6);
  Alcotest.(check bool) "repro drops a trap before a barrier" true
    (List.exists (fun (s : Sim.step) -> s.Sim.op = "fault-trap-drop") f.Sim.steps)

(* ---------- repro records ---------- *)

let test_repro_json_roundtrip () =
  let f = shrunk_failure (Sim_store.alphabet ~buggy_merge:true ()) in
  (match Schema.conforms (Sim.repro_spec Sim_registry.all) (Sim.to_json f) with
  | Error m -> Alcotest.failf "repro does not match its spec: %s" m
  | Ok () -> ());
  match Schema.decode (Sim.repro_spec Sim_registry.all) (Sim.to_json f) with
  | Error m -> Alcotest.failf "round-trip failed: %s" m
  | Ok f' -> Alcotest.(check bool) "identical record" true (f = f')

(* A repro is replayed as recorded or not at all: an op argument that is
   not an int must not be dropped into a shorter, fabricated sequence. *)
let test_repro_rejects_bad_ops () =
  let f = shrunk_failure (Sim_fleet.alphabet ~plant:true ()) in
  let with_first_op op : Obs_json.t =
    match Sim.to_json f with
    | `Assoc kvs ->
      `Assoc
        (List.map
           (function
             | "ops", `List (_ :: rest) -> ("ops", `List (op :: rest))
             | kv -> kv)
           kvs)
    | j -> j
  in
  let op name args : Obs_json.t =
    `Assoc [ ("op", `String name); ("args", `List args) ]
  in
  List.iter
    (fun (what, arg) ->
      Alcotest.(check bool) what true
        (Result.is_error
           (Schema.decode (Sim.repro_spec Sim_registry.all) (with_first_op (op "barrier" [ `Int 1; arg ])))))
    [ ("string arg", `String "x"); ("bool arg", `Bool true);
      ("float arg", `Float 1.5) ];
  Alcotest.(check bool) "op outside the alphabet" true
    (Result.is_error
       (Schema.conforms (Sim.repro_spec Sim_registry.all)
          (with_first_op (op "add1" [ `Int 1 ]))))

let test_repro_line_parses () =
  let f = shrunk_failure (Sim_fleet.alphabet ~plant:true ()) in
  match Obs_json.of_string (Sim.repro_line f) with
  | Error m -> Alcotest.failf "repro line is not JSON: %s" m
  | Ok json -> (
    match Obs_json.member "schema" json with
    | Some (`String s) -> Alcotest.(check string) "schema" Sim.schema s
    | _ -> Alcotest.fail "schema member missing")

let test_replay_bit_identical () =
  let f = shrunk_failure (Sim_store.alphabet ~buggy_merge:true ()) in
  (match Sim.replay Sim_registry.all f with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "replay diverged: %s" m);
  (* Tampering with any certified field must be caught. *)
  let divergent f' =
    match Sim.replay Sim_registry.all f' with
    | Ok _ -> Alcotest.fail "tampered repro replayed"
    | Error _ -> ()
  in
  divergent { f with Sim.replay_hash = Int64.lognot f.Sim.replay_hash };
  divergent { f with Sim.message = "something else" };
  divergent { f with Sim.steps = [] };
  divergent { f with Sim.alphabet = "no-such-alphabet" }

(* ---------- registry ---------- *)

let test_registry () =
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true
        (Sim_registry.find n <> None))
    [ "heap"; "runtime"; "fleet"; "store"; "respond"; "store-buggy-merge";
      "fleet-evidence-bug"; "respond-lost-conviction" ];
  Alcotest.(check bool) "unknown name rejected" true
    (Sim_registry.find "no-such-alphabet" = None);
  (* The default sweep set holds only the real-system alphabets: planted
     bugs never trip CI. *)
  Alcotest.(check (list string)) "default sweep set"
    [ "heap"; "runtime"; "fleet"; "store"; "respond" ]
    (List.map Sim.name_of Sim_registry.default)

let suite =
  [ Alcotest.test_case "exec: deterministic trace hash" `Quick
      test_exec_deterministic;
    Alcotest.test_case "exec: unsatisfied preconditions skipped" `Quick
      test_exec_skips_unsatisfied_pre;
    Alcotest.test_case "exec: stops at first violation" `Quick
      test_exec_detects_violation;
    Alcotest.test_case "run: finds and shrinks the counter bug" `Quick
      test_run_finds_and_shrinks;
    Alcotest.test_case "sweep: same seed, same counterexample" `Quick
      test_sweep_deterministic;
    Alcotest.test_case "shrink: planted merge bug <= 6 ops" `Quick
      test_planted_merge_bug_shrinks;
    Alcotest.test_case "shrink: planted fleet bug <= 6 ops" `Quick
      test_planted_fleet_bug_shrinks;
    Alcotest.test_case "shrink: planted respond bug <= 6 ops" `Quick
      test_planted_respond_bug_shrinks;
    Alcotest.test_case "sweep: respond alphabet holds" `Quick
      test_respond_alphabet_holds;
    Alcotest.test_case "repro: JSON round-trip" `Quick test_repro_json_roundtrip;
    Alcotest.test_case "repro: malformed ops rejected" `Quick
      test_repro_rejects_bad_ops;
    Alcotest.test_case "repro: JSONL line carries the schema" `Quick
      test_repro_line_parses;
    Alcotest.test_case "replay: bit-identical, tamper-evident" `Quick
      test_replay_bit_identical;
    Alcotest.test_case "registry: names and default sweep" `Quick
      test_registry ]
