(* Chrome trace-event JSON from flight-recorder records.

   The output is the "JSON object format": {"traceEvents": [...]} with
   phase intervals as complete ("X") slices, object lifecycles as async
   ("b"/"n"/"e") spans keyed by object address, context probabilities as
   counter ("C") tracks, detections and injected faults as global instants
   ("i"), and active responses as instants on the runtime's track.  Both
   chrome://tracing and ui.perfetto.dev open it directly. *)

open Flight_recorder

let runtime_pid = 0
let objects_pid = 1

let us_of ~cycles_per_second cycles =
  float_of_int cycles /. float_of_int cycles_per_second *. 1e6

let event ?(args = []) ~name ~ph ~ts ~pid fields : Obs_json.t =
  `Assoc
    (( [ ("name", `String name); ("ph", `String ph); ("ts", `Float ts);
         ("pid", `Int pid) ]
     @ fields
     @ match args with [] -> [] | _ -> [ ("args", `Assoc args) ] ))

let metadata ~name ~pid ~value : Obs_json.t =
  `Assoc
    [ ("name", `String name); ("ph", `String "M"); ("pid", `Int pid);
      ("ts", `Float 0.0); ("args", `Assoc [ ("name", `String value) ]) ]

let obj_name addr = Printf.sprintf "obj 0x%x" addr
let obj_id addr = `String (Printf.sprintf "0x%x" addr)

(* Objects worth an async track: anything beyond a plain alloc/free pair,
   otherwise large runs flood the trace with thousands of silent spans. *)
let interesting_addrs recs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match r.kind with
      | Watch { addr; _ } | Replace { victim = addr; _ }
      | Trap { addr; _ } | Detection { addr; _ } ->
        Hashtbl.replace tbl addr ()
      | Canary_check { addr; ok = false } -> Hashtbl.replace tbl addr ()
      | _ -> ())
    recs;
  tbl

let async ~interest ~us addr r ~name ~ph ?(args = []) () =
  if Hashtbl.mem interest addr then
    Some
      (event ~name ~ph ~ts:(us r.at) ~pid:objects_pid
         [ ("cat", `String "object"); ("id", obj_id addr); ("tid", `Int 0) ]
         ~args)
  else None

(* An instant on the runtime's track: global, or on its thread ("t"). *)
let instant ~us r ~cat ?(scope = "g") name =
  Some
    (event ~name ~ph:"i" ~ts:(us r.at) ~pid:runtime_pid
       [ ("cat", `String cat); ("tid", `Int 0); ("s", `String scope) ])

let to_json ~cycles_per_second recs =
  let us = us_of ~cycles_per_second in
  let interest = interesting_addrs recs in
  let last_at = List.fold_left (fun acc r -> max acc r.at) 0 recs in
  let open_spans = Hashtbl.create 16 in
  let events =
    List.filter_map
      (fun r ->
        match r.kind with
        | Phase { phase; start; stop } ->
          Some
            (event ~name:phase ~ph:"X" ~ts:(us start) ~pid:runtime_pid
               [ ("cat", `String "phase"); ("tid", `Int 0);
                 ("dur", `Float (us (stop - start))) ])
        | Alloc { addr; index; size; ctx; _ } ->
          if Hashtbl.mem interest addr then Hashtbl.replace open_spans addr ();
          async ~interest ~us addr r ~name:(obj_name addr) ~ph:"b"
            ~args:[ ("index", `Int index); ("size", `Int size); ("ctx", `Int ctx) ]
            ()
        | Free { addr } ->
          Hashtbl.remove open_spans addr;
          async ~interest ~us addr r ~name:(obj_name addr) ~ph:"e" ()
        | Decision { addr; prob; watched; _ } ->
          async ~interest ~us addr r
            ~name:
              (Printf.sprintf "decision p=%.3f%% -> %s" (prob *. 100.)
                 (if watched then "watch" else "skip"))
            ~ph:"n" ()
        | Watch { addr; _ } ->
          async ~interest ~us addr r ~name:"watchpoint installed" ~ph:"n" ()
        | Replace { victim; by; _ } ->
          async ~interest ~us victim r
            ~name:(Printf.sprintf "evicted by 0x%x" by)
            ~ph:"n" ()
        | Unwatch_free { addr } ->
          async ~interest ~us addr r ~name:"watchpoint removed (free)" ~ph:"n" ()
        | Trap { addr; access; tid } ->
          async ~interest ~us addr r
            ~name:(Printf.sprintf "TRAP %s (tid %d)" access tid)
            ~ph:"n" ()
        | Canary_check { addr; ok } ->
          async ~interest ~us addr r
            ~name:(if ok then "canary ok" else "canary CORRUPT")
            ~ph:"n" ()
        | Detection { addr; source; _ } ->
          instant ~us r ~cat:"detection"
            (Printf.sprintf "DETECTION via %s: obj 0x%x" source addr)
        | Prob { ctx; to_p; _ } ->
          Some
            (event
               ~name:(Printf.sprintf "ctx#%d prob" ctx)
               ~ph:"C" ~ts:(us r.at) ~pid:runtime_pid
               [ ("tid", `Int 0) ]
               ~args:[ ("percent", `Float (to_p *. 100.)) ])
        | Fault { point } ->
          instant ~us r ~cat:"fault" (Printf.sprintf "FAULT injected: %s" point)
        | Respond { action; source; obj; addr; len; _ } ->
          instant ~us r ~cat:"respond" ~scope:"t"
            (Printf.sprintf "%s via %s: obj 0x%x +%d, %d bytes"
               (respond_action_name action) (respond_source_name source) obj
               (addr - obj) len))
      recs
  in
  (* Close spans still open at the end of the recording so viewers never
     see a dangling async begin. *)
  let closers =
    Hashtbl.fold
      (fun addr () acc ->
        event ~name:(obj_name addr) ~ph:"e" ~ts:(us last_at) ~pid:objects_pid
          [ ("cat", `String "object"); ("id", obj_id addr); ("tid", `Int 0) ]
        :: acc)
      open_spans []
  in
  `Assoc
    [ ( "traceEvents",
        `List
          (metadata ~name:"process_name" ~pid:runtime_pid ~value:"csod runtime"
           :: metadata ~name:"process_name" ~pid:objects_pid ~value:"heap objects"
           :: (events @ closers)) );
      ("displayTimeUnit", `String "ms") ]

let to_string ~cycles_per_second recs =
  Obs_json.to_string (to_json ~cycles_per_second recs)

(* ---- fleet epoch spans ----

   Where the single-execution export above runs on the virtual clock, the
   fleet spans are wall time: the point is to see real stragglers and
   merge stalls.  Duration ("B"/"E") pairs on one process, one thread per
   pool worker plus a barrier track, as the issue tracker for a parallel
   run. *)

let fleet_pid = 2

type fleet_span = {
  track : int; (* thread id: worker slot, or [domains] for the barrier *)
  name : string;
  start_s : float; (* wall seconds relative to the run start *)
  stop_s : float;
  args : (string * Obs_json.t) list;
}

let thread_name ~pid ~tid ~value : Obs_json.t =
  `Assoc
    [ ("name", `String "thread_name"); ("ph", `String "M"); ("pid", `Int pid);
      ("tid", `Int tid); ("ts", `Float 0.0);
      ("args", `Assoc [ ("name", `String value) ]) ]

let fleet_spans_to_json ~domains spans =
  let ev ~name ~ph ~ts ~tid args =
    ( ts,
      event ~name ~ph ~ts ~pid:fleet_pid [ ("tid", `Int tid) ] ~args )
  in
  let events =
    List.concat_map
      (fun s ->
        let ts0 = s.start_s *. 1e6 and ts1 = s.stop_s *. 1e6 in
        [ ev ~name:s.name ~ph:"B" ~ts:ts0 ~tid:s.track s.args;
          ev ~name:s.name ~ph:"E" ~ts:ts1 ~tid:s.track [] ])
      spans
    (* Same-track spans never overlap (a worker runs one chunk at a time),
       so sorting by timestamp yields properly nested B/E pairs. *)
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let threads =
    List.init domains (fun tid ->
        thread_name ~pid:fleet_pid ~tid ~value:(Printf.sprintf "domain %d" tid))
    @ [ thread_name ~pid:fleet_pid ~tid:domains ~value:"epoch barrier" ]
  in
  `Assoc
    [ ( "traceEvents",
        `List
          (metadata ~name:"process_name" ~pid:fleet_pid ~value:"csod fleet"
          :: (threads @ events)) );
      ("displayTimeUnit", `String "ms") ]

let fleet_spans_to_string ~domains spans =
  Obs_json.to_string (fleet_spans_to_json ~domains spans)
