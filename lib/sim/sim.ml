(* The simulation-test engine: seed-controlled generation over a declarative
   operation alphabet, stepwise invariant checking, greedy shrinking, and
   JSONL repros that re-execute bit-identically.

   All generation randomness comes from one stream forked off the run seed
   by label ("sim:<alphabet>"), so the system under test's own PRNGs — the
   machine generator, the fault stream — never interleave with sequence
   generation, and a recorded sequence replays without the generation
   stream at all. *)

type step = { op : string; args : int list }

type 's op = {
  op_name : string;
  weight : int;
  pre : 's -> bool;
  gen : 's -> Prng.t -> int list;
  apply : 's -> int list -> (unit, string) result;
}

type 's alphabet = {
  name : string;
  ops : 's op list;
  init : seed:int -> 's;
  check : 's -> string option;
  digest : 's -> int64;
  teardown : 's -> unit;
}

type packed = Packed : 's alphabet -> packed

let name_of (Packed a) = a.name
let find packs name = List.find_opt (fun p -> name_of p = name) packs

let digest_ints vs =
  List.fold_left
    (fun h v -> Int64.mul (Int64.logxor h (Int64.of_int v)) 0x100000001B3L)
    0x9E3779B97F4A7C15L vs

type failure = {
  alphabet : string;
  seed : int;
  steps : step list;
  failed_at : int;
  message : string;
  replay_hash : int64;
  shrunk_from : int;
}

type exec_result = {
  failed : (int * string) option;
  hash : int64;
  applied : int;
}

(* ---- replay hash: FNV-1a folded over the executed trace ---------------- *)

let mix_int64 h v =
  let h = ref h in
  for i = 0 to 7 do
    h := Fnv.byte !h (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done;
  !h

let mix_int h v = mix_int64 h (Int64.of_int v)

(* ---- execution --------------------------------------------------------- *)

let with_state a ~seed f =
  let s = a.init ~seed in
  Fun.protect ~finally:(fun () -> a.teardown s) (fun () -> f s)

let op_by_name a name = List.find_opt (fun o -> o.op_name = name) a.ops

let exec a ~seed steps =
  with_state a ~seed (fun s ->
      let hash = ref Fnv.offset in
      let applied = ref 0 in
      let failed = ref None in
      (try
         List.iteri
           (fun i st ->
             match op_by_name a st.op with
             | None ->
               failed := Some (i, Printf.sprintf "unknown op %S" st.op);
               raise Exit
             | Some o when not (o.pre s) -> () (* skipped: precondition gone *)
             | Some o ->
               incr applied;
               hash := Fnv.string !hash st.op;
               List.iter (fun v -> hash := mix_int !hash v) st.args;
               let outcome =
                 match o.apply s st.args with
                 | Error msg -> Some msg
                 | Ok () -> a.check s
               in
               hash := mix_int64 !hash (a.digest s);
               (match outcome with
               | Some msg ->
                 hash := Fnv.string !hash msg;
                 failed := Some (i, msg);
                 raise Exit
               | None -> ()))
           steps
       with Exit -> ());
      { failed = !failed; hash = !hash; applied = !applied })

(* ---- generation -------------------------------------------------------- *)

let pick_op a s g =
  let candidates = List.filter (fun o -> o.pre s) a.ops in
  match candidates with
  | [] -> None
  | _ ->
    let total = List.fold_left (fun acc o -> acc + max 1 o.weight) 0 candidates in
    let r = Prng.int g total in
    let rec go r = function
      | [] -> assert false
      | [ o ] -> o
      | o :: rest ->
        let w = max 1 o.weight in
        if r < w then o else go (r - w) rest
    in
    Some (go r candidates)

let generate a ~seed ~ops =
  (* One state drives generation (preconditions consult it); the recorded
     sequence is then re-executed from scratch by [exec] so that the
     reported failure and hash are exactly what a replay reproduces. *)
  let g = Prng.fork (Prng.create ~seed) ("sim:" ^ a.name) in
  with_state a ~seed (fun s ->
      let steps = ref [] in
      (try
         for _ = 1 to ops do
           match pick_op a s g with
           | None -> raise Exit
           | Some o ->
             let args = o.gen s g in
             steps := { op = o.op_name; args } :: !steps;
             (match o.apply s args with
             | Error _ -> raise Exit
             | Ok () -> if a.check s <> None then raise Exit)
         done
       with Exit -> ());
      List.rev !steps)

let failure_of_exec a ~seed ~shrunk_from steps r =
  match r.failed with
  | None -> None
  | Some (i, msg) ->
    Some
      { alphabet = a.name;
        seed;
        steps;
        failed_at = i;
        message = msg;
        replay_hash = r.hash;
        shrunk_from }

let run_one a ~seed ~ops =
  let steps = generate a ~seed ~ops in
  failure_of_exec a ~seed ~shrunk_from:(List.length steps) steps
    (exec a ~seed steps)

(* ---- shrinking --------------------------------------------------------- *)

let shrink a f =
  let budget = ref 4000 in
  let attempt steps =
    if !budget <= 0 then None
    else begin
      decr budget;
      let r = exec a ~seed:f.seed steps in
      match r.failed with None -> None | Some _ -> Some r
    end
  in
  let current = ref (Array.of_list f.steps) in
  let best = ref (exec a ~seed:f.seed f.steps) in
  let accept steps r =
    current := Array.of_list steps;
    best := r
  in
  (* Phase 1: chunk removal, halving chunk sizes down to single ops; rescan
     from the largest chunk size after any successful removal so freshly
     exposed redundancy is retried cheaply. *)
  let removed_something = ref true in
  while !removed_something && !budget > 0 do
    removed_something := false;
    let chunk = ref (max 1 (Array.length !current / 2)) in
    while !chunk >= 1 && !budget > 0 do
      let pos = ref 0 in
      while !pos < Array.length !current && !budget > 0 do
        let arr = !current in
        let n = Array.length arr in
        let len = min !chunk (n - !pos) in
        if len >= 1 && n - len >= 1 then begin
          let candidate =
            Array.to_list (Array.sub arr 0 !pos)
            @ Array.to_list (Array.sub arr (!pos + len) (n - !pos - len))
          in
          match attempt candidate with
          | Some r ->
            accept candidate r;
            removed_something := true
            (* same [pos]: the next chunk slid into place *)
          | None -> pos := !pos + len
        end
        else pos := !pos + max 1 len
      done;
      chunk := if !chunk = 1 then 0 else max 1 (!chunk / 2)
    done
  done;
  (* Phase 2: per-argument minimization — try 0, then halving, then
     decrement, greedily per argument.  The sequence length is fixed here,
     only argument values change. *)
  let improved = ref true in
  while !improved && !budget > 0 do
    improved := false;
    for i = 0 to Array.length !current - 1 do
      let nargs = List.length (!current).(i).args in
      for j = 0 to nargs - 1 do
        let try_value v' =
          let st = (!current).(i) in
          let args' = List.mapi (fun k x -> if k = j then v' else x) st.args in
          let cand = Array.copy !current in
          cand.(i) <- { st with args = args' };
          let cand = Array.to_list cand in
          match attempt cand with
          | Some r ->
            accept cand r;
            improved := true;
            true
          | None -> false
        in
        let v = List.nth (!current).(i).args j in
        if v > 0 && not (try_value 0) then begin
          let v = List.nth (!current).(i).args j in
          if v / 2 > 0 && v / 2 < v then ignore (try_value (v / 2));
          let v = List.nth (!current).(i).args j in
          if v > 0 then ignore (try_value (v - 1))
        end
      done
    done
  done;
  let steps = Array.to_list !current in
  match failure_of_exec a ~seed:f.seed ~shrunk_from:f.shrunk_from steps !best with
  | Some f' -> f'
  | None -> f (* unreachable: !best always holds a failing execution *)

(* ---- sweeps ------------------------------------------------------------ *)

let run ?(shrink_failures = true) ?(max_failures = 1) a ~seed ~runs ~ops =
  let failures = ref [] in
  (try
     for i = 0 to runs - 1 do
       match run_one a ~seed:(seed + i) ~ops with
       | None -> ()
       | Some f ->
         let f = if shrink_failures then shrink a f else f in
         failures := f :: !failures;
         if List.length !failures >= max_failures then raise Exit
     done
   with Exit -> ());
  List.rev !failures

let run_packed ?shrink_failures ?max_failures (Packed a) ~seed ~runs ~ops =
  run ?shrink_failures ?max_failures a ~seed ~runs ~ops

(* ---- repros ------------------------------------------------------------ *)

let schema = "csod.sim.repro/1"

let hash_hex h = Printf.sprintf "%016Lx" h

let table : failure Schema.field list =
  Schema.Field.
    [ string "alphabet" (fun f -> f.alphabet) (fun f alphabet -> { f with alphabet });
      int ~min:min_int "seed" (fun f -> f.seed) (fun f seed -> { f with seed });
      records "ops"
        [ string "op" (fun st -> st.op) (fun st op -> { st with op });
          list "args" (fun v -> `Int v) (function `Int v -> Some v | _ -> None)
            (fun st -> st.args) (fun st args -> { st with args }) ]
        { op = ""; args = [] } (fun f -> f.steps) (fun f steps -> { f with steps });
      int "failed_at" (fun f -> f.failed_at) (fun f failed_at -> { f with failed_at });
      string "failure" (fun f -> f.message) (fun f message -> { f with message });
      (* exactly as [hash_hex] writes it: 16 lowercase hex digits *)
      conv "replay_hash" String
        (fun h -> `String (hash_hex h))
        (function
          | `String h ->
            Option.bind (Int64.of_string_opt ("0x" ^ h)) (fun v ->
                if hash_hex v = h then Some v else None)
          | _ -> None)
        (fun f -> f.replay_hash) (fun f replay_hash -> { f with replay_hash });
      int "shrunk_from" (fun f -> f.shrunk_from) (fun f shrunk_from -> { f with shrunk_from }) ]

let to_json f = Schema.to_json ~tag:schema table f

let repro_spec packs =
  Schema.of_table schema table
    { alphabet = ""; seed = 0; steps = []; failed_at = 0; message = "";
      replay_hash = 0L; shrunk_from = 0 }
    ~check:(fun () f ->
      let n = List.length f.steps in
      if n = 0 then Error "empty op sequence"
      else if f.failed_at >= n then
        Error (Printf.sprintf "failed_at %d outside the %d-op sequence" f.failed_at n)
      else if f.shrunk_from < n then
        Error (Printf.sprintf "shrunk_from below the kept %d ops" n)
      else
        match find packs f.alphabet with
        | None -> Error (Printf.sprintf "unknown alphabet %S" f.alphabet)
        | Some (Packed a) -> (
          let known = List.map (fun o -> o.op_name) a.ops in
          match List.find_opt (fun st -> not (List.mem st.op known)) f.steps with
          | Some st ->
            Error (Printf.sprintf "op %S is not in the %s alphabet" st.op f.alphabet)
          | None -> Ok ()))

let repro_line f = Obs_json.to_string (to_json f)

let summary f =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s: invariant violated after %d op(s) (shrunk from %d):\n"
       f.alphabet (List.length f.steps) f.shrunk_from);
  List.iteri
    (fun i st ->
      Buffer.add_string buf
        (Printf.sprintf "  %s%2d. %s%s\n"
           (if i = f.failed_at then "!" else " ")
           (i + 1) st.op
           (match st.args with
           | [] -> ""
           | args ->
             "(" ^ String.concat ", " (List.map string_of_int args) ^ ")")))
    f.steps;
  Buffer.add_string buf (Printf.sprintf "  failure: %s\n" f.message);
  Buffer.add_string buf
    (Printf.sprintf "  seed %d, replay hash %s\n" f.seed (hash_hex f.replay_hash));
  Buffer.contents buf

let replay packs f =
  match find packs f.alphabet with
  | None -> Error (Printf.sprintf "unknown alphabet %S" f.alphabet)
  | Some (Packed a) -> (
    let r = exec a ~seed:f.seed f.steps in
    match r.failed with
    | None -> Error "replay did not fail: the recorded violation is gone"
    | Some (i, msg) ->
      if i <> f.failed_at then
        Error
          (Printf.sprintf "replay failed at step %d, recorded %d" (i + 1)
             (f.failed_at + 1))
      else if msg <> f.message then
        Error (Printf.sprintf "replay failure %S, recorded %S" msg f.message)
      else if r.hash <> f.replay_hash then
        Error
          (Printf.sprintf "replay hash %s, recorded %s" (hash_hex r.hash)
             (hash_hex f.replay_hash))
      else
        Ok
          (Printf.sprintf
             "%s: %d op(s) re-executed bit-identically (hash %s, failure at \
              step %d)"
             f.alphabet (List.length f.steps) (hash_hex r.hash)
             (f.failed_at + 1)))
