(* Post-mortem diagnosis of one execution: pair a flight-recorder
   recording with the oracle's ground truth and explain, per detection and
   per missed bug, exactly what the sampling machinery did. *)

open Flight_recorder

type verdict =
  | Detected of string
  | Coin_failed of float
  | Outbid of float
  | Evicted of { by : int; by_ctx : int }
  | Removed_on_free
  | Watched_no_trap
  | Record_dropped
  | No_oracle of string

let verdict_label = function
  | Detected src -> "detected:" ^ src
  | Coin_failed _ -> "coin-failed"
  | Outbid _ -> "outbid"
  | Evicted _ -> "watch-evicted"
  | Removed_on_free -> "removed-on-free"
  | Watched_no_trap -> "watched-no-trap"
  | Record_dropped -> "record-dropped"
  | No_oracle _ -> "no-oracle"

type analysis = {
  outcome : Execution.outcome;
  records : record list;
  recorded : int;
  dropped : int;
  oracle : Oracle.overflow option;
  target_addr : int option; (* overflowing object's address in this run *)
  target_ctx : int option;
  target_seq : int option; (* its allocation record's seq *)
  verdict : verdict;
  seed : int;
}

(* ---- correlation ---- *)

let find_alloc_by_index records index =
  List.find_opt
    (fun r -> match r.kind with Alloc a -> a.index = index | _ -> false)
    records

(* The story of the object whose allocation record has sequence number
   [from_seq]: records touching it from that allocation up to (and
   including) the free that ends its life — address reuse by a later
   object must not bleed in.  A trap carries the address of the access,
   not the object's: it is the object's when the access starts inside the
   object or on the watched word at its boundary. *)
let story records ~from_seq =
  let rec go ~addr ~boundary acc = function
    | [] -> List.rev acc
    | r :: rest -> (
      let mine a = a = addr in
      let go = go ~addr ~boundary in
      match r.kind with
      | Free a when mine a.addr -> List.rev (r :: acc)
      | Alloc a when mine a.addr -> List.rev acc
      | Decision a when mine a.addr -> go (r :: acc) rest
      | Watch a when mine a.addr -> go (r :: acc) rest
      | Replace a when mine a.victim || mine a.by -> go (r :: acc) rest
      | Unwatch_free a when mine a.addr -> go (r :: acc) rest
      | Trap a when a.addr >= addr && a.addr < boundary + 8 -> go (r :: acc) rest
      | Canary_check a when mine a.addr -> go (r :: acc) rest
      | Detection a when mine a.addr -> go (r :: acc) rest
      | Respond a when mine a.obj -> go (r :: acc) rest
      | _ -> go acc rest)
  in
  let rec start = function
    | r :: rest when r.seq < from_seq -> start rest
    | ({ kind = Alloc a; _ } as r) :: rest when r.seq = from_seq ->
      go ~addr:a.addr ~boundary:(Canary.boundary_addr ~app:a.addr ~size:a.size)
        [ r ] rest
    | _ -> []
  in
  (* The Watch/Replace record is emitted inside the install that the
     sampling decision triggered, so it carries an earlier seq than its
     Decision; swap them so the story reads cause before effect. *)
  let rec reorder = function
    | ({ kind = Watch _ | Replace _; _ } as w)
      :: ({ kind = Decision _; _ } as d)
      :: rest
      when w.at = d.at -> d :: w :: reorder rest
    | r :: rest -> r :: reorder rest
    | [] -> []
  in
  reorder (start records)

(* The allocation record of each detected object, oldest detection first:
   the latest allocation at the detection's address before it, since the
   heap reuses addresses. *)
let detected_allocs records =
  let latest = Hashtbl.create 64 in
  List.filter_map
    (fun r ->
      match r.kind with
      | Alloc a ->
        Hashtbl.replace latest a.addr r;
        None
      | Detection d -> Some (Hashtbl.find_opt latest d.addr)
      | _ -> None)
    records

let classify ~records ~story:st ~addr =
  let detection =
    List.find_map
      (fun r -> match r.kind with Detection d when d.addr = addr -> Some d.source | _ -> None)
      st
  in
  match detection with
  | Some src -> Detected src
  | None ->
    let watched =
      List.exists (fun r -> match r.kind with Watch _ -> true | _ -> false) st
    in
    if watched then
      let evicted =
        List.find_map
          (fun r ->
            match r.kind with
            | Replace p when p.victim = addr ->
              Some (Evicted { by = p.by; by_ctx = p.by_ctx })
            | _ -> None)
          st
      in
      match evicted with
      | Some v -> v
      | None ->
        if
          List.exists
            (fun r -> match r.kind with Unwatch_free _ -> true | _ -> false)
            st
        then Removed_on_free
        else Watched_no_trap
    else
      let decision =
        List.find_map
          (fun r ->
            match r.kind with Decision d -> Some (d.coin, d.prob) | _ -> None)
          st
      in
      (match decision with
      | Some (false, p) -> Coin_failed p
      | Some (true, p) -> Outbid p
      | None -> ignore records; Record_dropped)

let analyze ~(app : Buggy_app.t) ~config ?(input = Execution.Buggy) ?(seed = 1)
    ?(capacity = Flight_recorder.default_capacity) () =
  let oracle =
    match Oracle.observe ~seed ~app ~input () with
    | Ok o -> (
      match Oracle.first_overflow o with
      | Some ov -> Ok ov
      | None -> Error "oracle saw no overflow on this input")
    | Error msg -> Error (Printf.sprintf "oracle run crashed: %s" msg)
  in
  let recorder = Flight_recorder.create ~capacity () in
  let outcome =
    Flight_recorder.with_recorder recorder (fun () ->
        Execution.run ~app ~config ~input ~seed ())
  in
  let records = Flight_recorder.records recorder in
  let target =
    match oracle with
    | Error _ -> None
    | Ok ov -> (
      match find_alloc_by_index records ov.Oracle.alloc_index with
      | Some ({ kind = Alloc a; _ } as r) -> Some (r.seq, a.addr, a.ctx)
      | _ -> None)
  in
  let verdict =
    match (oracle, target) with
    | Error msg, _ -> No_oracle msg
    | Ok _, None -> Record_dropped
    | Ok _, Some (from_seq, addr, _) ->
      classify ~records ~story:(story records ~from_seq) ~addr
  in
  { outcome;
    records;
    recorded = Flight_recorder.recorded recorder;
    dropped = Flight_recorder.dropped recorder;
    oracle = (match oracle with Ok ov -> Some ov | Error _ -> None);
    target_addr = Option.map (fun (_, addr, _) -> addr) target;
    target_ctx = Option.map (fun (_, _, ctx) -> ctx) target;
    target_seq = Option.map (fun (seq, _, _) -> seq) target;
    verdict;
    seed }

(* ---- rendering ---- *)

let secs at = float_of_int at /. float_of_int Cost.cycles_per_second
let fmt_t at = Printf.sprintf "t=%10.6fs" (secs at)
let pct p = Printf.sprintf "%.4f%%" (p *. 100.)

(* One story line; [addr] is the address of the object whose story it is. *)
let line_of_record ~symbolize ~addr r =
  let t = fmt_t r.at in
  match r.kind with
  | Alloc a ->
    Some
      (Printf.sprintf "%s  allocated (alloc #%d, %d bytes) at %s" t a.index
         a.size (symbolize a.site))
  | Decision d when d.startup ->
    Some (Printf.sprintf "%s  watched on startup (installation due to availability)" t)
  | Decision d ->
    Some
      (Printf.sprintf "%s  sampling decision p=%s: %s" t (pct d.prob)
         (if d.watched then "coin won -> WATCH"
          else if d.coin then "coin won, but no watchpoint slot yielded"
          else "coin failed -> skip"))
  | Watch _ -> Some (Printf.sprintf "%s  watchpoint installed at object boundary" t)
  | Replace p when p.by = addr ->
    Some
      (Printf.sprintf "%s  took the watchpoint slot from 0x%x (ctx#%d)" t
         p.victim p.victim_ctx)
  | Replace p ->
    Some
      (Printf.sprintf "%s  EVICTED: watchpoint handed to 0x%x (ctx#%d)" t p.by
         p.by_ctx)
  | Unwatch_free _ -> Some (Printf.sprintf "%s  watchpoint removed (object freed)" t)
  | Trap tr ->
    Some (Printf.sprintf "%s  TRAP: %s of the guarded boundary (tid %d)" t tr.access tr.tid)
  | Canary_check c ->
    Some
      (Printf.sprintf "%s  canary check: %s" t
         (if c.ok then "intact" else "CORRUPTED"))
  | Detection d -> Some (Printf.sprintf "%s  DETECTED via %s" t d.source)
  | Free _ -> Some (Printf.sprintf "%s  freed" t)
  | Fault f -> Some (Printf.sprintf "%s  FAULT injected: %s" t f.point)
  | Respond r ->
    Some
      (Printf.sprintf "%s  RESPONSE %s via %s (%d bytes at +%d)" t
         (respond_action_name r.action) (respond_source_name r.source) r.len
         (r.addr - r.obj))
  | Prob _ | Phase _ -> None

(* A context's probability timeline.  Runs of consecutive decays collapse
   to one line each — a long-lived context decays on every allocation and
   the interesting transitions would otherwise drown. *)
let prob_timeline records ~ctx =
  (* (at, cause, from_p, to_p), oldest first *)
  let transitions =
    List.filter_map
      (fun r ->
        match r.kind with
        | Prob p when p.ctx = ctx -> Some (r.at, p.cause, p.from_p, p.to_p)
        | _ -> None)
      records
  in
  let buf = Buffer.create 256 in
  (* [pending] holds a run of consecutive decays, newest first. *)
  let flush_decays = function
    | [] -> ()
    | [ (at, _, from_p, to_p) ] ->
      Buffer.add_string buf
        (Printf.sprintf "  %s  decay %s -> %s\n" (fmt_t at) (pct from_p)
           (pct to_p))
    | run ->
      let at0, _, from_p, _ = List.hd (List.rev run) in
      let at1, _, _, to_p = List.hd run in
      Buffer.add_string buf
        (Printf.sprintf "  %s  decay %s -> %s (%d allocations, through t=%.6fs)\n"
           (fmt_t at0) (pct from_p) (pct to_p) (List.length run) (secs at1))
  in
  let pending = ref [] in
  List.iter
    (fun ((at, cause, from_p, to_p) as tr) ->
      match cause with
      | Decay -> pending := tr :: !pending
      | cause ->
        flush_decays !pending;
        pending := [];
        Buffer.add_string buf
          (Printf.sprintf "  %s  %s %s -> %s\n" (fmt_t at)
             (prob_cause_name cause) (pct from_p) (pct to_p)))
    transitions;
  flush_decays !pending;
  if Buffer.length buf = 0 then "  (no probability transitions recorded)\n"
  else Buffer.contents buf

let ctx_sampling_summary records ~ctx =
  let decisions =
    List.filter_map
      (fun r ->
        match r.kind with
        | Decision d when d.ctx = ctx -> Some (d.coin, d.watched)
        | _ -> None)
      records
  in
  let total = List.length decisions in
  let count f = List.length (List.filter f decisions) in
  let watched = count (fun (_, w) -> w) in
  let coin_failed = count (fun (c, _) -> not c) in
  let outbid = count (fun (c, w) -> c && not w) in
  Printf.sprintf
    "  %d sampling decisions recorded: %d watched, %d coin flips failed, %d outbid\n"
    total watched coin_failed outbid

let verdict_sentence = function
  | Detected src -> Printf.sprintf "the bug WAS detected (via %s)." src
  | Coin_failed p ->
    Printf.sprintf
      "the overflowing object was never watched: its sampling coin flip failed \
       (probability was %s at allocation time)."
      (pct p)
  | Outbid p ->
    Printf.sprintf
      "the overflowing object won its coin flip (p=%s) but every debug register \
       was held by a higher-probability watchpoint — no slot yielded."
      (pct p)
  | Evicted { by; by_ctx } ->
    Printf.sprintf
      "the overflowing object WAS watched, but the replacement policy evicted \
       its watchpoint in favour of object 0x%x (ctx#%d) before the overflowing \
       access." by by_ctx
  | Removed_on_free ->
    "the overflowing object was watched, but the watchpoint was removed when \
     the object was freed before any overflowing access."
  | Watched_no_trap ->
    "the overflowing object was watched and kept its watchpoint, yet no trap \
     fired — the overflow must have skipped the guarded boundary word."
  | Record_dropped ->
    "the flight recorder no longer holds the overflowing object's records; \
     rerun with a larger --flight-recorder capacity."
  | No_oracle msg -> Printf.sprintf "no ground truth available (%s)." msg

let render ~symbolize a =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* The story of the object whose allocation record has seq [from_seq]. *)
  let add_story from_seq =
    let st = story a.records ~from_seq in
    let addr = match st with { kind = Alloc al; _ } :: _ -> al.addr | _ -> -1 in
    List.iter
      (fun r -> Option.iter (add "  %s\n") (line_of_record ~symbolize ~addr r))
      st
  in
  add "flight recorder: %d records kept (%d emitted, %d overwritten)\n"
    (List.length a.records) a.recorded a.dropped;
  (* Detections, each with its object's lifecycle span.  The ring keeps the
     newest records, so a dropped detection record is an early one. *)
  (match a.outcome.Execution.reports with
  | [] -> add "\nno detection in this execution.\n"
  | reports ->
    let allocs = detected_allocs a.records in
    let lost = List.length reports - List.length allocs in
    List.iteri
      (fun i r ->
        add "\n=== detection #%d: %s ===\n" (i + 1) (Report.one_line ~symbolize r);
        match if i < lost then None else List.nth allocs (i - lost) with
        | Some alloc -> add_story alloc.seq
        | None -> add "  (object's allocation record no longer in the ring)\n")
      reports);
  (* The bug itself, detected or missed. *)
  (match (a.oracle, a.target_seq) with
  | Some ov, Some from_seq ->
    let site, _off = ov.Oracle.alloc_ctx_key in
    add "\n=== the bug (oracle ground truth) ===\n";
    add "overflowing allocation context: %s (ctx#%d), alloc #%d\n"
      (symbolize site)
      (Option.value ~default:(-1) a.target_ctx)
      ov.Oracle.alloc_index;
    add "verdict: %s\n" (verdict_sentence a.verdict);
    (match a.verdict with
    | Detected _ -> ()
    | _ ->
      add "\nthe overflowing object's life:\n";
      add_story from_seq);
    (match a.target_ctx with
    | None -> ()
    | Some ctx ->
      add "\ncontext #%d sampling history:\n" ctx;
      add "%s" (ctx_sampling_summary a.records ~ctx);
      add "\ncontext #%d probability timeline:\n" ctx;
      add "%s" (prob_timeline a.records ~ctx))
  | _ ->
    add "\n=== ground truth ===\n";
    add "%s\n" (verdict_sentence a.verdict));
  Buffer.contents buf
