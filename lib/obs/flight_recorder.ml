type prob_cause = Decay | Halve_on_watch | Throttle | Revive | Pin | Degrade

let prob_cause_name = function
  | Decay -> "decay"
  | Halve_on_watch -> "halve-on-watch"
  | Throttle -> "burst-throttle"
  | Revive -> "revive"
  | Pin -> "evidence-pin"
  | Degrade -> "degrade-canary-only"

let cause_code = function
  | Decay -> 0
  | Halve_on_watch -> 1
  | Throttle -> 2
  | Revive -> 3
  | Pin -> 4
  | Degrade -> 5

let cause_of_code = function
  | 0 -> Decay
  | 1 -> Halve_on_watch
  | 2 -> Throttle
  | 3 -> Revive
  | 4 -> Pin
  | _ -> Degrade

type kind =
  | Alloc of { index : int; addr : int; size : int; ctx : int; site : int; off : int }
  | Decision of {
      addr : int;
      ctx : int;
      prob : float;
      coin : bool;
      watched : bool;
      startup : bool;
    }
  | Watch of { addr : int; ctx : int }
  | Replace of { victim : int; victim_ctx : int; by : int; by_ctx : int }
  | Unwatch_free of { addr : int }
  | Free of { addr : int }
  | Trap of { addr : int; access : string; tid : int }
  | Canary_check of { addr : int; ok : bool }
  | Detection of { addr : int; ctx : int; source : string }
  | Prob of { ctx : int; cause : prob_cause; from_p : float; to_p : float }
  | Phase of { phase : string; start : int; stop : int }
  | Fault of { point : string }

type record = { seq : int; at : int; kind : kind }

(* Kind tags for the columnar ring. *)
let tag_alloc = 0
let tag_decision = 1
let tag_watch = 2
let tag_replace = 3
let tag_unwatch_free = 4
let tag_free = 5
let tag_trap = 6
let tag_canary_check = 7
let tag_detection = 8
let tag_prob = 9
let tag_phase = 10
let tag_fault = 11

(* Columnar ring: one flat column per field slot instead of a ring of
   [record] values.  A push is a seq bump plus a handful of unboxed array
   stores — no kind block, no record, no option box — so recording in the
   allocator hot path costs no allocation and no GC pressure.  [record]
   values are materialised only on the cold read path ([records]).

   Record [n] lives at slot [n mod cap]; once [seq] exceeds [cap] the
   oldest slots are overwritten in place, so
   [dropped = max 0 (seq - cap)].  Strings stored in [sa] are the
   caller's — in practice shared literals ("read", "watchpoint",
   phase names), so the store is a pointer write. *)
type t = {
  cap : int;
  tag : int array;
  at_ : int array;
  i0 : int array;
  i1 : int array;
  i2 : int array;
  i3 : int array;
  i4 : int array;
  i5 : int array;
  f0 : float array;
  f1 : float array;
  sa : string array;
  mutable seq : int; (* records ever emitted, = seq of the next record *)
  mutable allocs : int; (* Alloc records ever emitted: the 1-based index *)
  mutable detections : int;
}

let default_capacity = 65_536

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then
    invalid_arg "Flight_recorder.create: capacity must be positive";
  { cap = capacity;
    tag = Array.make capacity 0;
    at_ = Array.make capacity 0;
    i0 = Array.make capacity 0;
    i1 = Array.make capacity 0;
    i2 = Array.make capacity 0;
    i3 = Array.make capacity 0;
    i4 = Array.make capacity 0;
    i5 = Array.make capacity 0;
    f0 = Array.make capacity 0.;
    f1 = Array.make capacity 0.;
    sa = Array.make capacity "";
    seq = 0;
    allocs = 0;
    detections = 0 }

let capacity t = t.cap
let recorded t = t.seq
let dropped t = if t.seq > t.cap then t.seq - t.cap else 0
let alloc_count t = t.allocs
let detection_count t = t.detections

let kind_of_slot t s =
  let tag = t.tag.(s) in
  if tag = tag_alloc then
    Alloc
      { index = t.i0.(s); addr = t.i1.(s); size = t.i2.(s); ctx = t.i3.(s);
        site = t.i4.(s); off = t.i5.(s) }
  else if tag = tag_decision then
    Decision
      { addr = t.i0.(s); ctx = t.i1.(s); prob = t.f0.(s);
        coin = t.i2.(s) <> 0; watched = t.i3.(s) <> 0;
        startup = t.i4.(s) <> 0 }
  else if tag = tag_watch then Watch { addr = t.i0.(s); ctx = t.i1.(s) }
  else if tag = tag_replace then
    Replace
      { victim = t.i0.(s); victim_ctx = t.i1.(s); by = t.i2.(s);
        by_ctx = t.i3.(s) }
  else if tag = tag_unwatch_free then Unwatch_free { addr = t.i0.(s) }
  else if tag = tag_free then Free { addr = t.i0.(s) }
  else if tag = tag_trap then
    Trap { addr = t.i0.(s); access = t.sa.(s); tid = t.i1.(s) }
  else if tag = tag_canary_check then
    Canary_check { addr = t.i0.(s); ok = t.i1.(s) <> 0 }
  else if tag = tag_detection then
    Detection { addr = t.i0.(s); ctx = t.i1.(s); source = t.sa.(s) }
  else if tag = tag_prob then
    Prob
      { ctx = t.i0.(s); cause = cause_of_code t.i1.(s); from_p = t.f0.(s);
        to_p = t.f1.(s) }
  else if tag = tag_phase then
    Phase { phase = t.sa.(s); start = t.i0.(s); stop = t.i1.(s) }
  else Fault { point = t.sa.(s) }

let records t =
  let first = if t.seq > t.cap then t.seq - t.cap else 0 in
  let rec go n acc =
    if n < first then acc
    else
      let s = n mod t.cap in
      go (n - 1) ({ seq = n; at = t.at_.(s); kind = kind_of_slot t s } :: acc)
  in
  go (t.seq - 1) []

(* Process-global, like {!Event_sink}: the hooks live in module-level
   runtime code with no handle to thread a recorder through. *)
let current : t option ref = ref None

let install t = current := Some t
let uninstall () = current := None
let active () = !current <> None

let with_recorder t f =
  let prev = !current in
  current := Some t;
  Fun.protect ~finally:(fun () -> current := prev) f

(* Claim the next slot and write the two columns every record shares. *)
let slot t ~at tag =
  let s = t.seq mod t.cap in
  t.seq <- t.seq + 1;
  t.tag.(s) <- tag;
  t.at_.(s) <- at;
  s

(* ---- JSON encoding: one encoder for the ring's export and the stream ---- *)

let kind_fields = function
  | Alloc { index; addr; size; ctx; site; off } ->
    ( "alloc",
      [ ("index", `Int index); ("addr", `Int addr); ("size", `Int size);
        ("ctx", `Int ctx); ("site", `Int site); ("stack_offset", `Int off) ] )
  | Decision { addr; ctx; prob; coin; watched; startup } ->
    ( "decision",
      [ ("addr", `Int addr); ("ctx", `Int ctx); ("prob", `Float prob);
        ("coin", `Bool coin); ("watched", `Bool watched);
        ("startup", `Bool startup) ] )
  | Watch { addr; ctx } -> ("watch", [ ("addr", `Int addr); ("ctx", `Int ctx) ])
  | Replace { victim; victim_ctx; by; by_ctx } ->
    ( "replace",
      [ ("victim", `Int victim); ("victim_ctx", `Int victim_ctx);
        ("by", `Int by); ("by_ctx", `Int by_ctx) ] )
  | Unwatch_free { addr } -> ("unwatch_free", [ ("addr", `Int addr) ])
  | Free { addr } -> ("free", [ ("addr", `Int addr) ])
  | Trap { addr; access; tid } ->
    ("trap", [ ("addr", `Int addr); ("access", `String access); ("tid", `Int tid) ])
  | Canary_check { addr; ok } ->
    ("canary_check", [ ("addr", `Int addr); ("ok", `Bool ok) ])
  | Detection { addr; ctx; source } ->
    ( "detection",
      [ ("addr", `Int addr); ("ctx", `Int ctx); ("source", `String source) ] )
  | Prob { ctx; cause; from_p; to_p } ->
    ( "prob",
      [ ("ctx", `Int ctx); ("cause", `String (prob_cause_name cause));
        ("from", `Float from_p); ("to", `Float to_p) ] )
  | Phase { phase; start; stop } ->
    ("phase", [ ("phase", `String phase); ("start", `Int start); ("stop", `Int stop) ])
  | Fault { point } -> ("fault", [ ("point", `String point) ])

let record_fields r =
  let name, fields = kind_fields r.kind in
  (name, ("seq", `Int r.seq) :: ("at", `Int r.at) :: fields)

let record_to_json r : Obs_json.t =
  let name, fields = record_fields r in
  `Assoc (("kind", `String name) :: fields)

(* The stream is a subscriber of the ring: the record just written at slot
   [s] goes out as one [{"event":<kind>,"seq":…,"at":…,…}] line. *)
let stream t s =
  let name, fields =
    record_fields { seq = t.seq - 1; at = t.at_.(s); kind = kind_of_slot t s }
  in
  Event_sink.emit name fields

(* Every hook ends here once its columns are written: one more branch when
   no sink is installed. *)
let publish t s = if Event_sink.active () then stream t s

(* ---- typed hooks ----

   Each is a single branch when no recorder is installed.  None of them
   reads the PRNG or advances the clock, so recording cannot perturb the
   simulated execution. *)

let alloc ~at ~addr ~size ~ctx ~site ~off =
  match !current with
  | None -> ()
  | Some t ->
    t.allocs <- t.allocs + 1;
    let s = slot t ~at tag_alloc in
    t.i0.(s) <- t.allocs;
    t.i1.(s) <- addr;
    t.i2.(s) <- size;
    t.i3.(s) <- ctx;
    t.i4.(s) <- site;
    t.i5.(s) <- off;
    publish t s

let decision ~at ~addr ~ctx ~prob ~coin ~watched ~startup =
  match !current with
  | None -> ()
  | Some t ->
    let s = slot t ~at tag_decision in
    t.i0.(s) <- addr;
    t.i1.(s) <- ctx;
    t.f0.(s) <- prob;
    t.i2.(s) <- Bool.to_int coin;
    t.i3.(s) <- Bool.to_int watched;
    t.i4.(s) <- Bool.to_int startup;
    publish t s

let watch ~at ~addr ~ctx =
  match !current with
  | None -> ()
  | Some t ->
    let s = slot t ~at tag_watch in
    t.i0.(s) <- addr;
    t.i1.(s) <- ctx;
    publish t s

let replace ~at ~victim ~victim_ctx ~by ~by_ctx =
  match !current with
  | None -> ()
  | Some t ->
    let s = slot t ~at tag_replace in
    t.i0.(s) <- victim;
    t.i1.(s) <- victim_ctx;
    t.i2.(s) <- by;
    t.i3.(s) <- by_ctx;
    publish t s

let unwatch_free ~at ~addr =
  match !current with
  | None -> ()
  | Some t ->
    let s = slot t ~at tag_unwatch_free in
    t.i0.(s) <- addr;
    publish t s

let free ~at ~addr =
  match !current with
  | None -> ()
  | Some t ->
    let s = slot t ~at tag_free in
    t.i0.(s) <- addr;
    publish t s

let trap ~at ~addr ~access ~tid =
  match !current with
  | None -> ()
  | Some t ->
    let s = slot t ~at tag_trap in
    t.i0.(s) <- addr;
    t.sa.(s) <- access;
    t.i1.(s) <- tid;
    publish t s

let canary_check ~at ~addr ~ok =
  match !current with
  | None -> ()
  | Some t ->
    let s = slot t ~at tag_canary_check in
    t.i0.(s) <- addr;
    t.i1.(s) <- Bool.to_int ok;
    publish t s

let detection ~at ~addr ~ctx ~source =
  match !current with
  | None -> ()
  | Some t ->
    t.detections <- t.detections + 1;
    let s = slot t ~at tag_detection in
    t.i0.(s) <- addr;
    t.i1.(s) <- ctx;
    t.sa.(s) <- source;
    publish t s

let prob ~at ~ctx ~cause ~from_p ~to_p =
  match !current with
  | None -> ()
  | Some t ->
    let s = slot t ~at tag_prob in
    t.i0.(s) <- ctx;
    t.i1.(s) <- cause_code cause;
    t.f0.(s) <- from_p;
    t.f1.(s) <- to_p;
    publish t s

let phase ~name ~start ~stop =
  match !current with
  | None -> ()
  | Some t ->
    let s = slot t ~at:stop tag_phase in
    t.sa.(s) <- name;
    t.i0.(s) <- start;
    t.i1.(s) <- stop;
    publish t s

let fault ~at ~point =
  match !current with
  | None -> ()
  | Some t ->
    let s = slot t ~at tag_fault in
    t.sa.(s) <- point;
    publish t s
