(* Alphabet over the incremental fleet.  The executor is synthetic and
   pure: user uid detects iff uid is a multiple of 3 and no trap-drop was
   forced for its epoch, and a detecting execution adds one evidence key to
   the store it was handed — so the model can predict detections, arrivals
   and the exact shared key set after every barrier.  Crash + resume goes
   through a real Persist save/load and Fleet's epoch0/uid0 offsets, so the
   resumed stream must line up with the uninterrupted one. *)

module KeySet = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let users_cap = 1_000_000

type state = {
  cfg : Fleet.config;
  execute : unit Fleet.executor;
  trap_drop : bool ref; (* read by the executor during the next barrier *)
  mutable fleet : unit Fleet.t;
  mutable model_keys : KeySet.t;
  mutable model_detections : int; (* of the current fleet instance *)
  mutable model_arrived : int;    (* of the current fleet instance *)
  path : string;
  mutable saved : KeySet.t option;
}

let evidence_key uid = (uid mod 5, uid mod 2)
let would_detect uid = uid mod 3 = 0

let make_executor ~plant ~trap_drop : unit Fleet.executor =
 fun ~user ~store ->
  let uid = user.Workload.uid in
  let dropped = !trap_drop in
  let detected = would_detect uid && not dropped in
  if detected then Persist.add store (evidence_key uid);
  if plant && would_detect uid && dropped then
    (* Planted bug: the lost trap suppressed the detection, but the
       evidence write slipped through anyway — the store now convicts a
       context no execution reported. *)
    Persist.add store (evidence_key uid);
  { Fleet.payload = ();
    detected;
    source = None;
    cycles = 10 + (uid mod 7);
    telemetry = None;
    degraded = false }

let start_fleet st ~store ~epoch0 ~uid0 =
  Fleet.start ?store ~epoch0 ~uid0 st.cfg ~execute:st.execute

let ops : state Sim.op list =
  [ { Sim.op_name = "barrier";
      weight = 6;
      pre = (fun _ -> true);
      gen = (fun _ g -> [ 1 + Prng.int g 6 ]);
      apply =
        (fun st args ->
          let arrivals =
            match args with n :: _ -> 1 + (n mod 6) | [] -> 1
          in
          let uid0 = Fleet.next_uid st.fleet in
          ignore (Fleet.step st.fleet ~arrivals);
          let dropped = !(st.trap_drop) in
          for uid = uid0 to uid0 + arrivals - 1 do
            if would_detect uid && not dropped then begin
              st.model_detections <- st.model_detections + 1;
              st.model_keys <- KeySet.add (evidence_key uid) st.model_keys
            end
          done;
          st.model_arrived <- st.model_arrived + arrivals;
          st.trap_drop := false;
          Ok ()) };
    { Sim.op_name = "fault-trap-drop";
      weight = 2;
      pre = (fun st -> not !(st.trap_drop));
      gen = (fun _ _ -> []);
      apply =
        (fun st _ ->
          st.trap_drop := true;
          Ok ()) };
    { Sim.op_name = "persist-save";
      weight = 2;
      pre = (fun _ -> true);
      gen = (fun _ _ -> []);
      apply =
        (fun st _ ->
          Persist.save (Fleet.store st.fleet) st.path;
          st.saved <- Some st.model_keys;
          Ok ()) };
    { Sim.op_name = "persist-load";
      weight = 1;
      pre = (fun st -> st.saved <> None);
      gen = (fun _ _ -> []);
      apply =
        (fun st _ ->
          let got = KeySet.of_list (Persist.keys (Persist.load st.path)) in
          match st.saved with
          | Some ks when KeySet.equal got ks -> Ok ()
          | Some ks ->
            Error
              (Printf.sprintf "checkpoint load found %d keys, saved %d"
                 (KeySet.cardinal got) (KeySet.cardinal ks))
          | None -> Ok ()) };
    { Sim.op_name = "crash";
      weight = 1;
      pre = (fun st -> st.saved <> None);
      gen = (fun _ _ -> []);
      apply =
        (fun st _ ->
          (* Service crash: the in-flight instance is lost; resume from the
             last checkpoint with epoch/uid offsets so the arrival stream
             continues deterministically.  Evidence since the checkpoint is
             gone — exactly what a real upload gap loses. *)
          let epoch0 = Fleet.epoch st.fleet in
          let uid0 = Fleet.next_uid st.fleet in
          ignore (Fleet.finish st.fleet);
          let store = Persist.load st.path in
          st.fleet <- start_fleet st ~store:(Some store) ~epoch0 ~uid0;
          st.model_keys <-
            (match st.saved with Some ks -> ks | None -> KeySet.empty);
          st.model_detections <- 0;
          st.model_arrived <- 0;
          st.trap_drop := false;
          Ok ()) } ]

let check st =
  let got_keys = KeySet.of_list (Persist.keys (Fleet.store st.fleet)) in
  if Fleet.detections st.fleet <> st.model_detections then
    Some
      (Printf.sprintf "fleet reports %d detections, model %d"
         (Fleet.detections st.fleet) st.model_detections)
  else if Fleet.arrived st.fleet <> st.model_arrived then
    Some
      (Printf.sprintf "fleet admitted %d users, model %d"
         (Fleet.arrived st.fleet) st.model_arrived)
  else if not (KeySet.equal got_keys st.model_keys) then
    Some
      (Printf.sprintf "shared store holds %d contexts, model %d"
         (KeySet.cardinal got_keys) (KeySet.cardinal st.model_keys))
  else None

let digest st =
  let h =
    Sim.digest_ints
      [ Fleet.detections st.fleet; Fleet.arrived st.fleet;
        Fleet.next_uid st.fleet; Fleet.epoch st.fleet ]
  in
  let acc = ref 0L in
  List.iter
    (fun (c, o) -> acc := Int64.add !acc (Int64.of_int (((c * 131) + o) + 1)))
    (Persist.keys (Fleet.store st.fleet));
  Int64.logxor h !acc

let alphabet ?(plant = false) () =
  Sim.Packed
    { Sim.name = (if plant then "fleet-evidence-bug" else "fleet");
      ops;
      init =
        (fun ~seed ->
          let workload =
            Workload.make ~base_seed:seed ~users:users_cap ()
          in
          (* domains = 1: the pool runs inline (no spawning), and the fleet
             report is domain-count-independent by construction — pinned
             separately by the fleet tests. *)
          let cfg = Fleet.config ~domains:1 ~epoch_size:4 workload in
          let trap_drop = ref false in
          let execute = make_executor ~plant ~trap_drop in
          let fleet = Fleet.start ~epoch0:0 ~uid0:1 cfg ~execute in
          { cfg;
            execute;
            trap_drop;
            fleet;
            model_keys = KeySet.empty;
            model_detections = 0;
            model_arrived = 0;
            path = Filename.temp_file "csod_sim_fleet" ".store";
            saved = None });
      check;
      digest;
      teardown =
        (fun st ->
          (try ignore (Fleet.finish st.fleet) with _ -> ());
          try Sys.remove st.path with Sys_error _ -> ()) }
