(* Spans for the traced pass, recorded from the benchmark's own calls into
   each layer (the library itself is not instrumented).

   Every closed span updates its layer's totals — calls, time, and self
   time (duration minus the time of the spans it directly contains).
   Individual spans are also kept in memory, up to a cap, and written out
   at exit as a Perfetto-openable trace; the cap keeps a 57k-allocation
   MySQL execution from turning into a multi-hundred-megabyte file.  The
   per-call malloc/free spans may take only half of it, so the spans that
   enclose them, which close later, still fit.

   A tracer is single-domain: the traced pass always runs at one domain. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type layer = {
  name : string;
  mutable calls : int;
  mutable total_ns : int;
  mutable self_ns : int;
}

type frame = { layer : layer; start : int; mutable child_ns : int }

type kept = {
  kname : string;
  parent : string;
  exec : int;
  start_ns : int;
  stop_ns : int;
}

type t = {
  enabled : bool;
  origin : int;
  layers : (string, layer) Hashtbl.t;
  mutable stack : frame list;
  mutable kept : kept list;
  mutable keep_left : int;
  mutable leaves_left : int;
  mutable exec : int;
}

let make ~enabled ~keep =
  { enabled; origin = now_ns (); layers = Hashtbl.create 16; stack = [];
    kept = []; keep_left = keep; leaves_left = keep / 2; exec = 0 }

let create ?(keep = 20_000) () = make ~enabled:true ~keep

(* Calls pass straight through: the rebuilt call sequence without the
   clock reads, used as the untraced reference path. *)
let off () = make ~enabled:false ~keep:0

let layer t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> l
  | None ->
    let l = { name; calls = 0; total_ns = 0; self_ns = 0 } in
    Hashtbl.add t.layers name l;
    l

let parent_name t = match t.stack with f :: _ -> f.layer.name | [] -> ""

let record ?(leaf = false) t (l : layer) ~start ~stop ~child_ns =
  let dur = stop - start in
  l.calls <- l.calls + 1;
  l.total_ns <- l.total_ns + dur;
  l.self_ns <- l.self_ns + dur - child_ns;
  (match t.stack with f :: _ -> f.child_ns <- f.child_ns + dur | [] -> ());
  if t.keep_left > 0 && ((not leaf) || t.leaves_left > 0) then begin
    t.keep_left <- t.keep_left - 1;
    if leaf then t.leaves_left <- t.leaves_left - 1;
    t.kept <-
      { kname = l.name; parent = parent_name t; exec = t.exec; start_ns = start;
        stop_ns = stop }
      :: t.kept
  end

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let fr = { layer = layer t name; start = now_ns (); child_ns = 0 } in
    t.stack <- fr :: t.stack;
    let close () =
      let stop = now_ns () in
      t.stack <- List.tl t.stack;
      record t fr.layer ~start:fr.start ~stop ~child_ns:fr.child_ns
    in
    match f () with
    | v -> close (); v
    | exception e -> close (); raise e
  end

(* One span per execution, numbered so the spans of one execution share
   an id in the trace. *)
let execution t f =
  t.exec <- t.exec + 1;
  with_span t "exec" f

(* The tool's allocation callbacks, each call a leaf span.  Written out
   rather than through [with_span] so the per-call cost is two clock
   reads and no allocation. *)
let wrap_tool t (tool : Tool.t) : Tool.t =
  if not t.enabled then tool
  else
    let m = layer t "runtime.malloc" and fr = layer t "runtime.free" in
    let leaf l start = record ~leaf:true t l ~start ~stop:(now_ns ()) ~child_ns:0 in
    { tool with
      Tool.malloc =
        (fun ~size ~ctx ->
          let start = now_ns () in
          match tool.Tool.malloc ~size ~ctx with
          | p -> leaf m start; p
          | exception e -> leaf m start; raise e);
      free =
        (fun ~ptr ->
          let start = now_ns () in
          match tool.Tool.free ~ptr with
          | () -> leaf fr start
          | exception e -> leaf fr start; raise e) }

let find t name = Hashtbl.find_opt t.layers name

let to_trace t =
  let sec ns = float_of_int (ns - t.origin) /. 1e9 in
  Trace_export.fleet_spans_to_string ~domains:1
    (List.rev_map
       (fun k ->
         { Trace_export.track = 0; name = k.kname; start_s = sec k.start_ns;
           stop_s = sec k.stop_ns;
           args = [ ("exec", `Int k.exec); ("parent", `String k.parent) ] })
       t.kept)
