(* Active response: failure-oblivious redirects (Rigger et al.) and
   code-less patches (Zeng et al.); respond.mli describes both.  This
   module holds the policy state — the mode, the shadow slab and the
   tallies — and records each action as a {!Flight_recorder} record.  The
   runtime and the ASan tool decide *when* to redirect; the machine
   applies the squash/override mechanics. *)

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

type source = Flight_recorder.respond_source = Watchpoint | Asan_shadow | Canary

type t = {
  mode : mode;
  machine : Machine.t;
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
}

(* In oblivious mode, arm the machine's squash/override hooks.  The
   [on_squash] callback fires only for stores a redirect asked to squash,
   so [target_obj] — set just before each squash request — is always the
   allocation the store overflowed. *)
let create mode ~machine =
  let t =
    { mode;
      machine;
      slab = Hashtbl.create 64;
      target_obj = 0;
      redirected_reads = 0;
      redirected_writes = 0;
      escapes = 0;
      patched_allocs = 0 }
  in
  if mode = Oblivious then
    Machine.arm_respond machine ~on_squash:(fun ~addr ~len:_ ~value ->
        Hashtbl.replace t.slab (t.target_obj, addr - t.target_obj) value);
  t

let oblivious t = t.mode = Oblivious

let patch_threshold t =
  match t.mode with Patch n -> Some n | Off | Oblivious -> None

let slab_get t ~obj ~off =
  match Hashtbl.find_opt t.slab (obj, off) with Some v -> v | None -> 0

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

(* Redirect the access whose detection is being handled right now.  For a
   write, the machine squashes the store and hands the discarded value to
   the slab; for a read, the slab (or zero) substitutes for the bytes the
   program had no right to see.  No PRNG draw, no clock charge beyond what
   the detection itself already cost: response must not perturb sampling. *)
let redirect t ~source ~kind ~ctx:(site, off) ~obj ~addr ~len ~at =
  let action =
    match (kind : Tool.access_kind) with
    | Tool.Read ->
      t.redirected_reads <- t.redirected_reads + 1;
      Machine.override_read t.machine (slab_get t ~obj ~off:(addr - obj));
      Flight_recorder.Redirect_read
    | Tool.Write ->
      t.redirected_writes <- t.redirected_writes + 1;
      t.target_obj <- obj;
      Machine.squash_write t.machine;
      Flight_recorder.Redirect_write
  in
  Flight_recorder.respond ~at ~action ~source ~site ~off ~obj ~addr ~len

(* A canary found corrupted means the overflow already escaped into
   adjacent memory before any redirect could happen (e.g. the watchpoint
   was never armed, or its trap was dropped).  That execution did not
   survive obliviously — recording it keeps fault plans honest: a dropped
   trap can never fake a survival. *)
let record_escape t ~source ~ctx:(site, off) ~addr ~at =
  t.escapes <- t.escapes + 1;
  Flight_recorder.respond ~at ~action:Flight_recorder.Escape ~source ~site ~off
    ~obj:addr ~addr ~len:0

let record_patch t ~ctx:(site, off) ~addr ~at =
  t.patched_allocs <- t.patched_allocs + 1;
  Flight_recorder.respond ~at ~action:Flight_recorder.Patch ~source:Watchpoint
    ~site ~off ~obj:addr ~addr ~len:0

type summary = {
  smode : mode;
  redirected_reads : int;
  redirected_writes : int;
  escapes : int;
  patched_allocs : int;
}

let summary t =
  { smode = t.mode;
    redirected_reads = t.redirected_reads;
    redirected_writes = t.redirected_writes;
    escapes = t.escapes;
    patched_allocs = t.patched_allocs }

(* Oblivious survival: every detected out-of-bounds access was redirected
   and nothing escaped into adjacent memory. *)
let survived t = t.mode = Oblivious && t.escapes = 0

let pp_summary ppf s =
  Fmt.pf ppf "respond %s: %d read / %d write redirects, %d escapes, %d patched allocs"
    (mode_to_string s.smode) s.redirected_reads s.redirected_writes s.escapes
    s.patched_allocs
