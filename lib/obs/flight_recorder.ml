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

(* ---- storage ----

   The ring is one [Bytes] block of [columns × cap] 64-bit words, laid out
   column by column: word column [c] of slot [s] sits at byte
   [((c × cap) + s) × 8].  [Bytes.create] neither fills the block nor
   hands the marker anything to scan, so creating a recorder costs one
   uninitialised allocation whatever its capacity, and a record is a few
   unboxed, bounds-checked stores with no write barrier.  Ints are stored
   through [Int64.of_int]/[to_int] (exact for every OCaml int), floats
   through [Int64.bits_of_float]/[float_of_bits] (bit-exact, NaN payloads
   and [-0.] included).

   Column 0 is the slot's head: the kind tag in the low [tag_bits] bits
   and a small code above it, so no slot holds a pointer.  The code is
   [decision]'s three flags, [canary_check]'s [ok], the [prob] cause, or —
   for [trap]'s access, [detection]'s source and [fault]'s point — the
   string's index in the recorder's intern table, which the cold path
   fills the first time it sees a string.  Column 1 is [at]; columns 2-7
   hold the kind's own fields.  A [phase] record's [stop] is its [at], and
   its code is the phase's {!Profiler.index} in the low [phase_bits] bits
   with the span [stop - start] above them, so the commonest record is
   two stores; a span outside [(0, span_limit)] is coded as 0 and [start]
   goes to column 2.

   The bytes start uninitialised: a reader reads only the columns its
   slot's tag wrote.  Record [n] lives at slot [n mod cap]; [next] is that
   slot for the next record, kept by a wrapping counter rather than a
   division, and once [seq] exceeds [cap] the oldest slots are overwritten
   in place, so [dropped = max 0 (seq - cap)].

   Every execution the benchmark and the CLI diagnose gets a fresh
   recorder and reads it after {!with_recorder} returns, so there is no
   point at which a ring could safely be handed back for reuse: creation
   is made cheap instead. *)

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
let tag_bits = 4
let[@inline] head tag code = tag lor (code lsl tag_bits)
let phase_bits = 4
let span_limit = 1 lsl 54

let columns = 8
let col_head = 0
let col_at = 1

type t = {
  cap : int;
  stride : int; (* bytes per column: [cap * 8] *)
  ring : Bytes.t;
  mutable next : int; (* slot of the next record: [seq mod cap] *)
  mutable seq : int; (* records ever emitted, = seq of the next record *)
  mutable allocs : int; (* Alloc records ever emitted: the 1-based index *)
  mutable detections : int;
  mutable names : string array; (* interned strings, by code *)
  mutable n_names : int;
}

let default_capacity = 65_536
let max_capacity = 1 lsl 24

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then
    invalid_arg "Flight_recorder.create: capacity must be positive";
  if capacity > max_capacity then
    invalid_arg
      (Printf.sprintf
         "Flight_recorder.create: capacity %d exceeds max_capacity (%d)"
         capacity max_capacity);
  { cap = capacity;
    stride = capacity * 8;
    ring = Bytes.create (columns * capacity * 8);
    next = 0;
    seq = 0;
    allocs = 0;
    detections = 0;
    names = [| "read"; "write" |];
    n_names = 2 }

let capacity t = t.cap
let recorded t = t.seq
let dropped t = if t.seq > t.cap then t.seq - t.cap else 0
let alloc_count t = t.allocs
let detection_count t = t.detections

(* Below, a slot [s] is named by its byte offset in column 0: slot
   index × 8. *)
let[@inline] offset t c s = s + (c * t.stride)
let[@inline] set t c s v = Bytes.set_int64_ne t.ring (offset t c s) (Int64.of_int v)
let[@inline] get t c s = Int64.to_int (Bytes.get_int64_ne t.ring (offset t c s))

let[@inline] set_float t c s x =
  Bytes.set_int64_ne t.ring (offset t c s) (Int64.bits_of_float x)

let[@inline] get_float t c s =
  Int64.float_of_bits (Bytes.get_int64_ne t.ring (offset t c s))

let rec find_name names n str i =
  if i = n then -1
  else if String.equal names.(i) str then i
  else find_name names n str (i + 1)

(* The code of [str] in [t]'s intern table, adding it on first sight. *)
let intern t str =
  let i = find_name t.names t.n_names str 0 in
  if i >= 0 then i
  else begin
    if t.n_names = Array.length t.names then
      t.names <- Array.append t.names (Array.make t.n_names "");
    t.names.(t.n_names) <- str;
    t.n_names <- t.n_names + 1;
    t.n_names - 1
  end

let phase_names =
  let a = Array.make (1 lsl phase_bits) "" in
  List.iter (fun p -> a.(Profiler.index p) <- Profiler.name p) Profiler.all;
  a

let kind_of_slot t s =
  let h = get t col_head s in
  let tag = h land ((1 lsl tag_bits) - 1) and code = h lsr tag_bits in
  let i c = get t (c + 2) s in
  if tag = tag_alloc then
    Alloc { index = i 0; addr = i 1; size = i 2; ctx = i 3; site = i 4; off = i 5 }
  else if tag = tag_decision then
    Decision
      { addr = i 0; ctx = i 1; prob = get_float t 4 s; coin = code land 1 <> 0;
        watched = code land 2 <> 0; startup = code land 4 <> 0 }
  else if tag = tag_watch then Watch { addr = i 0; ctx = i 1 }
  else if tag = tag_replace then
    Replace { victim = i 0; victim_ctx = i 1; by = i 2; by_ctx = i 3 }
  else if tag = tag_unwatch_free then Unwatch_free { addr = i 0 }
  else if tag = tag_free then Free { addr = i 0 }
  else if tag = tag_trap then
    Trap { addr = i 0; access = t.names.(code); tid = i 1 }
  else if tag = tag_canary_check then Canary_check { addr = i 0; ok = code <> 0 }
  else if tag = tag_detection then
    Detection { addr = i 0; ctx = i 1; source = t.names.(code) }
  else if tag = tag_prob then
    Prob
      { ctx = i 0; cause = cause_of_code code; from_p = get_float t 3 s;
        to_p = get_float t 4 s }
  else if tag = tag_phase then
    let stop = get t col_at s and span = code lsr phase_bits in
    Phase
      { phase = phase_names.(code land ((1 lsl phase_bits) - 1));
        start = (if span > 0 then stop - span else i 0);
        stop }
  else Fault { point = t.names.(code) }

let records t =
  let first = if t.seq > t.cap then t.seq - t.cap else 0 in
  let rec go n acc =
    if n < first then acc
    else
      let s = (n mod t.cap) * 8 in
      go (n - 1) ({ seq = n; at = get t col_at s; kind = kind_of_slot t s } :: acc)
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
let[@inline] slot t ~at h =
  let i = t.next in
  t.next <- (if i + 1 = t.cap then 0 else i + 1);
  t.seq <- t.seq + 1;
  let s = i * 8 in
  set t col_head s h;
  set t col_at s at;
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
    record_fields { seq = t.seq - 1; at = get t col_at s; kind = kind_of_slot t s }
  in
  Event_sink.emit name fields

(* Every hook ends here once its columns are written: one more branch when
   no sink is installed. *)
let[@inline] publish t s = if Event_sink.active () then stream t s

(* ---- typed hooks ----

   Each is a single branch when no recorder is installed.  None of them
   reads the PRNG or advances the clock, so recording cannot perturb the
   simulated execution.  None allocates either, past interning a name the
   first time it is seen: [decision] and [prob] are inlined into their
   callers so their float arguments are never boxed. *)

let alloc ~at ~addr ~size ~ctx ~site ~off =
  match !current with
  | None -> ()
  | Some t ->
    t.allocs <- t.allocs + 1;
    let s = slot t ~at tag_alloc in
    set t 2 s t.allocs;
    set t 3 s addr;
    set t 4 s size;
    set t 5 s ctx;
    set t 6 s site;
    set t 7 s off;
    publish t s

let[@inline] decision ~at ~addr ~ctx ~prob ~coin ~watched ~startup =
  match !current with
  | None -> ()
  | Some t ->
    let flags =
      Bool.to_int coin lor (Bool.to_int watched lsl 1)
      lor (Bool.to_int startup lsl 2)
    in
    let s = slot t ~at (head tag_decision flags) in
    set t 2 s addr;
    set t 3 s ctx;
    set_float t 4 s prob;
    publish t s

let watch ~at ~addr ~ctx =
  match !current with
  | None -> ()
  | Some t ->
    let s = slot t ~at tag_watch in
    set t 2 s addr;
    set t 3 s ctx;
    publish t s

let replace ~at ~victim ~victim_ctx ~by ~by_ctx =
  match !current with
  | None -> ()
  | Some t ->
    let s = slot t ~at tag_replace in
    set t 2 s victim;
    set t 3 s victim_ctx;
    set t 4 s by;
    set t 5 s by_ctx;
    publish t s

let unwatch_free ~at ~addr =
  match !current with
  | None -> ()
  | Some t ->
    let s = slot t ~at tag_unwatch_free in
    set t 2 s addr;
    publish t s

let free ~at ~addr =
  match !current with
  | None -> ()
  | Some t ->
    let s = slot t ~at tag_free in
    set t 2 s addr;
    publish t s

let trap ~at ~addr ~access ~tid =
  match !current with
  | None -> ()
  | Some t ->
    let s = slot t ~at (head tag_trap (intern t access)) in
    set t 2 s addr;
    set t 3 s tid;
    publish t s

let canary_check ~at ~addr ~ok =
  match !current with
  | None -> ()
  | Some t ->
    let s = slot t ~at (head tag_canary_check (Bool.to_int ok)) in
    set t 2 s addr;
    publish t s

let detection ~at ~addr ~ctx ~source =
  match !current with
  | None -> ()
  | Some t ->
    t.detections <- t.detections + 1;
    let s = slot t ~at (head tag_detection (intern t source)) in
    set t 2 s addr;
    set t 3 s ctx;
    publish t s

let[@inline] prob ~at ~ctx ~cause ~from_p ~to_p =
  match !current with
  | None -> ()
  | Some t ->
    let s = slot t ~at (head tag_prob (cause_code cause)) in
    set t 2 s ctx;
    set_float t 3 s from_p;
    set_float t 4 s to_p;
    publish t s

let phase ~phase ~start ~stop =
  match !current with
  | None -> ()
  | Some t ->
    let span = stop - start in
    if span > 0 && span < span_limit then
      publish t
        (slot t ~at:stop
           (head tag_phase (Profiler.index phase lor (span lsl phase_bits))))
    else begin
      let s = slot t ~at:stop (head tag_phase (Profiler.index phase)) in
      set t 2 s start;
      publish t s
    end

let fault ~at ~point =
  match !current with
  | None -> ()
  | Some t ->
    let s = slot t ~at (head tag_fault (intern t point)) in
    publish t s
