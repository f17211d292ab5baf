(* Active response: what happens after CSOD detects an overflow.

   Two policies, both built on the evidence pipeline the detector already
   maintains:

   - Failure-oblivious mode (Rigger et al.): a detected out-of-bounds
     access is redirected into a per-allocation shadow slab — reads return
     manufactured values (the slab entry, or zero), writes land in the slab
     instead of adjacent memory — and the execution continues.  The report
     is still produced; the response only changes what happens next.

   - Code-less patching (Zeng et al.): once fleet evidence convicts a
     context (hit count in the Persist store reaches a threshold), every
     future allocation from that context is quietly over-allocated with a
     guard slack, so the overflow lands in memory the allocation owns.  No
     redirect, no report, no cost for unconvicted contexts.

   This module holds the policy state: the mode, the shadow slab and the
   tallies; each event goes to the installed {!Event_sink}, if any.  The runtime and the ASan tool decide *when* to
   redirect; the machine applies the squash/override mechanics. *)

type mode = Off | Oblivious | Patch of int

let default_patch_threshold = 3

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "off" -> Ok Off
  | "oblivious" -> Ok Oblivious
  | "patch" -> Ok (Patch default_patch_threshold)
  | s when String.length s > 6 && String.sub s 0 6 = "patch=" -> (
    let arg = String.sub s 6 (String.length s - 6) in
    match int_of_string_opt arg with
    | Some n when n >= 1 -> Ok (Patch n)
    | _ -> Error (Printf.sprintf "bad patch threshold %S (want an int >= 1)" arg))
  | _ ->
    Error
      (Printf.sprintf "unknown response mode %S (expected off, oblivious or patch[=N])" s)

let mode_to_string = function
  | Off -> "off"
  | Oblivious -> "oblivious"
  | Patch n -> Printf.sprintf "patch=%d" n

type source = Watchpoint | Asan_shadow | Canary

let source_name = function
  | Watchpoint -> "watchpoint"
  | Asan_shadow -> "asan"
  | Canary -> "canary"

type event = {
  kind : string;  (* redirect-read | redirect-write | patch | escape *)
  source : string;
  site : int;
  ctx : int * int;
  addr : int;
  offset : int;
  len : int;
  at_sec : float;
}

let schema = "csod.respond.event/1"

let event_to_json (e : event) : Obs_json.t =
  let a, b = e.ctx in
  `Assoc
    [ ("schema", `String schema);
      ("kind", `String e.kind);
      ("source", `String e.source);
      ("site", `Int e.site);
      ("ctx", `List [ `Int a; `Int b ]);
      ("addr", `Int e.addr);
      ("offset", `Int e.offset);
      ("len", `Int e.len);
      ("at_sec", `Float e.at_sec) ]

let spec =
  Schema.make schema
    Schema.
      [ ("kind", String); ("source", String); ("site", Int); ("ctx", List);
        ("addr", Int); ("offset", Int); ("len", Int); ("at_sec", Float) ]
    ~check:(fun json ->
      let kinds = [ "redirect-read"; "redirect-write"; "escape"; "patch" ] in
      let sources = List.map source_name [ Watchpoint; Asan_shadow; Canary ] in
      match Obs_json.(member "kind" json, member "source" json, member "ctx" json) with
      | Some (`String k), _, _ when not (List.mem k kinds) ->
        Error (Printf.sprintf "unknown respond event kind %S" k)
      | _, Some (`String s), _ when not (List.mem s sources) ->
        Error (Printf.sprintf "unknown respond source %S" s)
      | _, _, Some (`List [ `Int _; `Int _ ]) -> Ok ()
      | _ -> Error "respond ctx is not an [int, int] pair")

type t = {
  mode : mode;
  (* (allocation base, byte offset past the object) -> squashed value.
     Offsets key the slab rather than absolute addresses so a freed-then-
     reused address range cannot leak one object's redirected bytes into
     another's. *)
  slab : (int * int, int) Hashtbl.t;
  mutable target_obj : int;  (* allocation base of the redirect in flight *)
  mutable redirected_reads : int;
  mutable redirected_writes : int;
  mutable escapes : int;
  mutable patched_allocs : int;
  mutable events : int;
}

let create mode =
  { mode;
    slab = Hashtbl.create 64;
    target_obj = 0;
    redirected_reads = 0;
    redirected_writes = 0;
    escapes = 0;
    patched_allocs = 0;
    events = 0 }

let oblivious t = t.mode = Oblivious

let patch_threshold t =
  match t.mode with Patch n -> Some n | Off | Oblivious -> None

let slab_get t ~obj ~off =
  match Hashtbl.find_opt t.slab (obj, off) with Some v -> v | None -> 0

let slab_put t ~obj ~off ~value = Hashtbl.replace t.slab (obj, off) value

(* Drop a freed object's slab bytes.  The heap reuses address ranges, and a
   recycled range can start at the very same base — without this, a new
   allocation there would inherit the dead object's redirected bytes and a
   manufactured read would leak them instead of returning zero. *)
let release t ~obj =
  let stale =
    Hashtbl.fold
      (fun ((o, _) as k) _ acc -> if o = obj then k :: acc else acc)
      t.slab []
  in
  List.iter (Hashtbl.remove t.slab) stale

(* Arm the machine's squash/override hooks.  The [on_squash] callback fires
   only for stores the runtime asked to squash, so [target_obj] — set just
   before each squash request — is always the allocation the store
   overflowed. *)
let attach t machine =
  Machine.arm_respond machine ~on_squash:(fun ~addr ~len:_ ~value ->
      slab_put t ~obj:t.target_obj ~off:(addr - t.target_obj) ~value)

let record t ~kind ~source ~site ~ctx ~addr ~offset ~len ~at_sec =
  t.events <- t.events + 1;
  if Event_sink.active () then
    let e =
      { kind; source = source_name source; site; ctx; addr; offset; len; at_sec }
    in
    Event_sink.emit "respond"
      (match event_to_json e with `Assoc fields -> fields | _ -> [])

(* Redirect the access whose detection is being handled right now.  For a
   write, the machine squashes the store and hands the discarded value to
   the slab; for a read, the slab (or zero) substitutes for the bytes the
   program had no right to see.  No PRNG draw, no clock charge beyond what
   the detection itself already cost: response must not perturb sampling. *)
let redirect t machine ~source ~kind ~site ~ctx ~obj ~addr ~len ~at_sec =
  let offset = addr - obj in
  (match (kind : Tool.access_kind) with
  | Tool.Read ->
    t.redirected_reads <- t.redirected_reads + 1;
    Machine.override_read machine (slab_get t ~obj ~off:offset);
    record t ~kind:"redirect-read" ~source ~site ~ctx ~addr ~offset ~len ~at_sec
  | Tool.Write ->
    t.redirected_writes <- t.redirected_writes + 1;
    t.target_obj <- obj;
    Machine.squash_write machine;
    record t ~kind:"redirect-write" ~source ~site ~ctx ~addr ~offset ~len
      ~at_sec)

(* A canary found corrupted means the overflow already escaped into
   adjacent memory before any redirect could happen (e.g. the watchpoint
   was never armed, or its trap was dropped).  That execution did not
   survive obliviously — recording it keeps fault plans honest: a dropped
   trap can never fake a survival. *)
let record_escape t ~source ~site ~ctx ~addr ~at_sec =
  t.escapes <- t.escapes + 1;
  record t ~kind:"escape" ~source ~site ~ctx ~addr ~offset:0 ~len:0 ~at_sec

let record_patch t ~site ~ctx ~addr ~at_sec =
  t.patched_allocs <- t.patched_allocs + 1;
  record t ~kind:"patch" ~source:Watchpoint ~site ~ctx ~addr ~offset:0 ~len:0
    ~at_sec

type summary = {
  smode : mode;
  redirected_reads : int;
  redirected_writes : int;
  escapes : int;
  patched_allocs : int;
  events : int;
}

let summary t =
  { smode = t.mode;
    redirected_reads = t.redirected_reads;
    redirected_writes = t.redirected_writes;
    escapes = t.escapes;
    patched_allocs = t.patched_allocs;
    events = t.events }

(* Oblivious survival: every detected out-of-bounds access was redirected
   and nothing escaped into adjacent memory. *)
let survived t = t.mode = Oblivious && t.escapes = 0

let pp_summary ppf s =
  Fmt.pf ppf "respond %s: %d read / %d write redirects, %d escapes, %d patched allocs"
    (mode_to_string s.smode) s.redirected_reads s.redirected_writes s.escapes
    s.patched_allocs
