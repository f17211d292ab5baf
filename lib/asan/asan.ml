type detection = { kind : Tool.access_kind; addr : int; site : int; at_sec : float }

type live = { base : int; size : int; request : int }

type t = {
  machine : Machine.t;
  heap : Heap.t;
  shadow : Shadow.t;
  quarantine : Quarantine.t;
  redzone : int;
  instrumented : int -> bool;
  respond : Respond.t option;
  mutable registry : (int, live) Hashtbl.t; (* app ptr -> block info *)
  c_shadow_checks : Metrics.counter;
  c_detections : Metrics.counter;
  c_quarantine_ops : Metrics.counter;
  mutable detections : detection list; (* newest first *)
}

(* The registry (1,025 words) is recycled through a domain-local spare
   like the heap's object table, and the shadow's pages go back to the
   page pool: both are handed on when the machine's memory is released. *)
let registry_slots = 1024
let spare_registry : (int, live) Hashtbl.t Spare.t = Spare.create ()

(* [reset], not [clear], as for the heap's table: a registry that grew
   goes back at its initial size.  The released tool keeps a small
   registry of its own. *)
let recycle t =
  let tbl = t.registry in
  t.registry <- Hashtbl.create 16;
  Hashtbl.reset tbl;
  Spare.give spare_registry tbl;
  Shadow.release t.shadow

let k_shadow_checks = Metrics.counter_key "asan.shadow_checks"
let k_detections = Metrics.counter_key "asan.detections"
let k_quarantine_ops = Metrics.counter_key "asan.quarantine_ops"

let create ?(redzone = 16) ?(quarantine_budget = 98_304) ?(instrumented = fun _ -> true)
    ?respond ~machine ~heap () =
  if redzone < 16 || redzone mod 8 <> 0 then
    invalid_arg "Asan.create: redzone must be a multiple of 8, at least 16";
  let reg = Machine.registry machine in
  let t =
    { machine;
      heap;
      shadow = Shadow.create ();
      quarantine = Quarantine.create ~budget_bytes:quarantine_budget;
      redzone;
      instrumented;
      respond;
      registry =
        Spare.take spare_registry ~fresh:(fun () -> Hashtbl.create registry_slots);
      c_shadow_checks = Metrics.counter reg k_shadow_checks;
      c_detections = Metrics.counter reg k_detections;
      c_quarantine_ops = Metrics.counter reg k_quarantine_ops;
      detections = [] }
  in
  Sparse_mem.on_release (Machine.mem machine) (fun () -> recycle t);
  t

let rounded8 n = (n + 7) land lnot 7

let asan_malloc t ~size ~ctx:_ =
  (* poisoning cost grows with the redzone width: the default-redzone
     configuration pays more per allocation than the minimal one *)
  Machine.work_as t.machine Profiler.Asan_poison (Cost.redzone_poison + (4 * t.redzone));
  let request = t.redzone + rounded8 size + t.redzone in
  let base = Heap.malloc t.heap request in
  let app = base + t.redzone in
  Shadow.poison t.shadow ~addr:base ~len:t.redzone;
  Shadow.unpoison t.shadow ~addr:app ~len:size;
  (* Right redzone starts at the first byte past the object, covering the
     rounding slack plus the configured redzone. *)
  Shadow.poison t.shadow ~addr:(app + size) ~len:(rounded8 size - size + t.redzone);
  Hashtbl.replace t.registry app { base; size; request };
  app

let release t (b : Quarantine.block) =
  (* Memory leaving quarantine becomes ordinary allocator memory again. *)
  Shadow.unpoison t.shadow ~addr:b.Quarantine.base ~len:b.Quarantine.bytes;
  Heap.free t.heap b.Quarantine.base

let asan_free t ~ptr =
  if ptr = 0 then Heap.free t.heap 0
  else
    match Hashtbl.find_opt t.registry ptr with
    | None -> Heap.free t.heap ptr (* foreign pointer: let the heap diagnose *)
    | Some l ->
      Metrics.incr t.c_quarantine_ops;
      Machine.work_as t.machine Profiler.Asan_poison Cost.quarantine_op;
      Hashtbl.remove t.registry ptr;
      (* The whole block, object included, is poisoned while quarantined. *)
      Shadow.poison t.shadow ~addr:l.base ~len:l.request;
      let evicted = t.quarantine |> fun q -> Quarantine.push q { base = l.base; bytes = l.request } in
      List.iter (release t) evicted

(* The allocation whose block (object + redzones) contains [addr], if it
   is still live.  A linear scan, but it runs only on a detection — the
   no-overflow path never reaches it. *)
let owning_block t addr =
  Hashtbl.fold
    (fun app l acc ->
      match acc with
      | Some _ -> acc
      | None ->
        if addr >= l.base && addr < l.base + l.request then Some (app, l)
        else None)
    t.registry None

let on_access t ~addr ~len ~kind ~site =
  if t.instrumented site then begin
    Metrics.incr t.c_shadow_checks;
    Machine.work_as t.machine Profiler.Asan_shadow Cost.shadow_check;
    if Shadow.is_poisoned t.shadow ~addr ~len then begin
      Metrics.incr t.c_detections;
      t.detections <-
        { kind; addr; site; at_sec = Clock.seconds (Machine.clock t.machine) }
        :: t.detections;
      (* Oblivious response: the shadow check runs {e before} the machine
         access, so the redirect is armed ahead of it — the pending
         squash/override is consumed by the very next load/store. *)
      match t.respond with
      | Some r when Respond.oblivious r ->
        let obj =
          match owning_block t addr with Some (app, _) -> app | None -> addr
        in
        Respond.redirect r ~source:Respond.Asan_shadow ~kind ~ctx:(site, 0)
          ~obj ~addr ~len ~at:(Clock.cycles (Machine.clock t.machine))
      | _ -> ()
    end
  end

let extra_resident_bytes t =
  (* real ASan's flat shadow costs 1/8 of the memory the application
     touches, plus whatever the quarantine is holding back *)
  (Heap.resident_bytes t.heap / 8) + Quarantine.held_bytes t.quarantine

let tool t =
  { Tool.name = (if t.redzone <= 16 then "asan-min-rz" else "asan");
    malloc = (fun ~size ~ctx -> asan_malloc t ~size ~ctx);
    free = (fun ~ptr -> asan_free t ~ptr);
    on_access = (fun ~addr ~len ~kind ~site -> on_access t ~addr ~len ~kind ~site);
    at_exit = (fun () -> ());
    extra_resident_bytes = (fun () -> extra_resident_bytes t) }

let detections t = List.rev t.detections
let detected t = t.detections <> []
