(* Alphabet over the persistent evidence store.  Two stores evolve against
   key-set models; save/load go through a real temp file with the
   persistence fault points forceable at exact steps.  The buggy-merge
   variant plants a deliberate invariant bug (drop the source's largest key
   when it holds >= 2) behind the flag — the seeded target the shrinking
   regression test must find and minimize. *)

module KeySet = Set.Make (struct
  type t = int * int

  let compare = compare
end)

type published = Nothing | Exact of KeySet.t | Subset of KeySet.t

type state = {
  s1 : Persist.t;
  s2 : Persist.t;
  mutable k1 : KeySet.t;
  mutable k2 : KeySet.t;
  path : string;
  inj : Fault_injector.t;
  mutable saved : published;
  mutable fault_pending : Fault_plan.point option;
  buggy : bool;
}

let key_of args =
  match args with
  | c :: o :: _ -> (c mod 1000, o mod 64)
  | c :: _ -> (c mod 1000, 0)
  | [] -> (0, 0)

let add_op name pick =
  { Sim.op_name = name;
    weight = 4;
    pre = (fun (_ : state) -> true);
    gen = (fun _ g -> [ Prng.int g 1000; Prng.int g 64 ]);
    apply =
      (fun st args ->
        let k = key_of args in
        let s, set = pick st in
        Persist.add s k;
        (match set with
        | `K1 -> st.k1 <- KeySet.add k st.k1
        | `K2 -> st.k2 <- KeySet.add k st.k2);
        Ok ()) }

let merge_into st ~dst ~src =
  if st.buggy && Persist.count src >= 2 then begin
    (* Planted bug: silently drop the source's largest key. *)
    let keys = Persist.keys src in
    let dropped = List.nth keys (List.length keys - 1) in
    List.iter (fun k -> if k <> dropped then Persist.add dst k) keys
  end
  else Persist.merge dst src

let ops : state Sim.op list =
  [ add_op "add1" (fun st -> (st.s1, `K1));
    add_op "add2" (fun st -> (st.s2, `K2));
    { Sim.op_name = "merge";
      weight = 3;
      pre = (fun _ -> true);
      gen = (fun _ g -> [ Prng.int g 2 ]);
      apply =
        (fun st args ->
          let union = KeySet.union st.k1 st.k2 in
          (if (match args with d :: _ -> d land 1 = 0 | [] -> true) then begin
             merge_into st ~dst:st.s1 ~src:st.s2;
             st.k1 <- union
           end
           else begin
             merge_into st ~dst:st.s2 ~src:st.s1;
             st.k2 <- union
           end);
          Ok ()) };
    { Sim.op_name = "persist-save";
      weight = 2;
      pre = (fun _ -> true);
      gen = (fun _ _ -> []);
      apply =
        (fun st _ ->
          Persist.save ~faults:st.inj st.s1 st.path;
          (match st.fault_pending with
          | Some Fault_plan.Persist_torn ->
            (* The torn write published a truncated, footer-less file: a
               loader salvages a prefix, never more than was saved. *)
            st.saved <- Subset st.k1
          | Some Fault_plan.Persist_enospc ->
            (* The full disk abandoned the temp file; whatever was
               published before is still intact. *)
            ()
          | _ -> st.saved <- Exact st.k1);
          st.fault_pending <- None;
          Ok ()) };
    { Sim.op_name = "persist-load";
      weight = 2;
      pre = (fun st -> st.saved <> Nothing);
      gen = (fun _ _ -> []);
      apply =
        (fun st _ ->
          let loaded, outcome = Persist.load_result st.path in
          let got = KeySet.of_list (Persist.keys loaded) in
          match (st.saved, outcome) with
          | Nothing, _ -> Ok ()
          | Subset _, Persist.Clean _ -> Error "torn save loaded clean"
          | Exact ks, _ ->
            if KeySet.equal got ks then Ok ()
            else
              Error
                (Printf.sprintf "load found %d keys, save published %d"
                   (KeySet.cardinal got) (KeySet.cardinal ks))
          | Subset ks, _ ->
            (* A tear cuts at a byte offset; the loader rejects the final
               unterminated line outright, so salvage can never fabricate
               a key that was not published. *)
            if KeySet.is_empty (KeySet.diff got ks) then Ok ()
            else Error "torn save loaded keys that were never published") };
    { Sim.op_name = "fault-persist-torn";
      weight = 1;
      pre = (fun st -> st.fault_pending = None);
      gen = (fun _ _ -> []);
      apply =
        (fun st _ ->
          Fault_injector.force st.inj Fault_plan.Persist_torn;
          st.fault_pending <- Some Fault_plan.Persist_torn;
          Ok ()) };
    { Sim.op_name = "fault-persist-enospc";
      weight = 1;
      pre = (fun st -> st.fault_pending = None);
      gen = (fun _ _ -> []);
      apply =
        (fun st _ ->
          Fault_injector.force st.inj Fault_plan.Persist_enospc;
          st.fault_pending <- Some Fault_plan.Persist_enospc;
          Ok ()) } ]

let check st =
  let keys s = KeySet.of_list (Persist.keys s) in
  if not (KeySet.equal (keys st.s1) st.k1) then
    Some
      (Printf.sprintf "store 1 holds %d keys, model %d"
         (KeySet.cardinal (keys st.s1)) (KeySet.cardinal st.k1))
  else if not (KeySet.equal (keys st.s2) st.k2) then
    Some
      (Printf.sprintf "store 2 holds %d keys, model %d"
         (KeySet.cardinal (keys st.s2)) (KeySet.cardinal st.k2))
  else begin
    (* Merge algebra probe on fresh copies: commutative, and a key-set
       union — the direct port of the hand-rolled persist property.  This
       always exercises the real [Persist.merge]. *)
    let a = Persist.copy st.s1 and b = Persist.copy st.s2 in
    Persist.merge a st.s2;
    Persist.merge b st.s1;
    let union = KeySet.union st.k1 st.k2 in
    if Persist.keys a <> Persist.keys b then Some "merge is not commutative"
    else if not (KeySet.equal (KeySet.of_list (Persist.keys a)) union) then
      Some "merge is not the key-set union"
    else None
  end

let digest st =
  let h =
    Sim.digest_ints
      [ Persist.count st.s1; Persist.count st.s2;
        (match st.saved with Nothing -> 0 | Exact _ -> 1 | Subset _ -> 2) ]
  in
  let acc = ref 0L in
  let fold s =
    List.iter
      (fun (c, o) -> acc := Int64.add !acc (Int64.of_int (((c * 131) + o) + 1)))
      (Persist.keys s)
  in
  fold st.s1;
  fold st.s2;
  Int64.logxor h !acc

let alphabet ?(buggy_merge = false) () =
  Sim.Packed
    { Sim.name = (if buggy_merge then "store-buggy-merge" else "store");
      ops;
      init =
        (fun ~seed ->
          let path = Filename.temp_file "csod_sim_store" ".store" in
          { s1 = Persist.create ();
            s2 = Persist.create ();
            k1 = KeySet.empty;
            k2 = KeySet.empty;
            path;
            inj = Fault_injector.create ~plan:Fault_plan.zero ~salt:seed;
            saved = Nothing;
            fault_pending = None;
            buggy = buggy_merge });
      check;
      digest;
      teardown =
        (fun st -> try Sys.remove st.path with Sys_error _ -> ()) }
