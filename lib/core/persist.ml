(* A store maps each convicted context key to its evidence hit count.  The
   key set is what pins contexts at 100% watch probability; the counts feed
   the code-less patching policy (a context is patched once its count
   reaches the conviction threshold).  The on-disk format is unchanged —
   counts are an in-memory, mergeable refinement.

   The keys sit in dense columns in first-insertion order, found through
   one open-addressing index over (call site, stack offset) — the layout
   of {!Context_table}'s: [index] holds a dense id, or -1, and is a power
   of two at most half full.  A probe compares two ints, so [mem] on the
   allocation path calls no generic hash, and [copy] is four blits. *)
type t = {
  mutable sites : int array;
  mutable offsets : int array;
  mutable counts : int array;
  mutable count : int;
  mutable index : int array;
  mutable shift : int; (* 63 - log2 (capacity of [index]) *)
}

let create () =
  { sites = [||]; offsets = [||]; counts = [||]; count = 0;
    index = [| -1; -1 |]; shift = 62 }

let[@inline] home t site off =
  (((site * 0x9E3779B1) lxor (off * 0x85EBCA77)) * 0x9E3779B97F4A7C1) lsr t.shift

(* The index cell holding the id of (site, off), or the empty cell where it
   would go. *)
let position t site off =
  let index = t.index in
  let mask = Array.length index - 1 in
  let i = ref (home t site off) in
  while
    let id = index.(!i) in
    id >= 0 && not (t.sites.(id) = site && t.offsets.(id) = off)
  do
    i := (!i + 1) land mask
  done;
  !i

let find t (site, off) = t.index.(position t site off)

let grown a n = let b = Array.make n 0 in Array.blit a 0 b 0 (Array.length a); b

(* Add [n] hits to (site, off), appending it if absent. *)
let add_hits t site off n =
  let i = position t site off in
  let id = t.index.(i) in
  if id >= 0 then t.counts.(id) <- t.counts.(id) + n
  else begin
    let id = t.count in
    if id = Array.length t.sites then begin
      let cap = max 8 (2 * id) in
      t.sites <- grown t.sites cap;
      t.offsets <- grown t.offsets cap;
      t.counts <- grown t.counts cap
    end;
    t.sites.(id) <- site;
    t.offsets.(id) <- off;
    t.counts.(id) <- n;
    t.count <- id + 1;
    if 2 * t.count > Array.length t.index then begin
      t.index <- Array.make (2 * Array.length t.index) (-1);
      t.shift <- t.shift - 1;
      for k = 0 to id do
        t.index.(position t t.sites.(k) t.offsets.(k)) <- k
      done
    end
    else t.index.(i) <- id
  end

let mem t key = find t key >= 0
let add t (site, off) = add_hits t site off 1

let hits t key =
  let id = find t key in
  if id >= 0 then t.counts.(id) else 0

let count t = t.count

let keys t =
  List.sort compare (List.init t.count (fun id -> (t.sites.(id), t.offsets.(id))))

let merge dst src =
  for id = 0 to src.count - 1 do
    add_hits dst src.sites.(id) src.offsets.(id) src.counts.(id)
  done

let copy t =
  { t with
    sites = Array.copy t.sites;
    offsets = Array.copy t.offsets;
    counts = Array.copy t.counts;
    index = Array.copy t.index }

(* Fold [src] into [dst] counting only the evidence [src] gained over
   [base].  The fleet snapshots the shared store into [base] at each epoch
   barrier and hands executions full copies (hit counts included, so patch
   conviction sees real evidence); merging back the {e delta} keeps the
   shared counts exact — evidence inherited from the snapshot is never
   counted twice, while every key set operation stays a plain merge. *)
let merge_delta dst ~base src =
  for id = 0 to src.count - 1 do
    let site = src.sites.(id) and off = src.offsets.(id) in
    let b =
      let j = base.index.(position base site off) in
      if j >= 0 then base.counts.(j) else 0
    in
    let n = src.counts.(id) in
    if n > b then add_hits dst site off (n - b)
  done

(* ---------- on-disk format ----------

   Data lines are the historical ["site stack_offset"] pairs, sorted.  Since
   format 2 the last line is a footer

     #csod.store/2 count=N sum=XXXXXXXXXXXXXXXX

   carrying the entry count and an FNV-1a checksum of the data lines, so a
   reader can tell a complete store from a torn one.  Footer-less files (the
   pre-footer format, or a tear that happened to land on a line boundary)
   are still accepted: they carry no integrity data to check. *)

let footer_magic = "#csod.store/2"

(* Each line is followed by a terminator byte so ["ab";"c"] and
   ["a";"bc"] differ. *)
let checksum lines =
  List.fold_left (fun h line -> Fnv.byte (Fnv.string h line) 0x0a) Fnv.offset
    lines

let render_lines t = List.map (fun (a, b) -> Printf.sprintf "%d %d" a b) (keys t)

let render t =
  let lines = render_lines t in
  let footer =
    Printf.sprintf "%s count=%d sum=%016Lx" footer_magic (List.length lines)
      (checksum lines)
  in
  String.concat "" (List.map (fun l -> l ^ "\n") (lines @ [ footer ]))

let write_string path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let save ?faults t path =
  let content = render t in
  let fires point =
    match faults with
    | None -> false
    | Some inj -> Fault_injector.fire inj point
  in
  if fires Fault_plan.Persist_torn then begin
    (* A crash mid-write: some prefix of the content reaches the file and
       the footer never does.  Written in place (no rename) — the tear is
       precisely what atomic publication would have prevented, kept
       injectable so the recovery path stays honest. *)
    let u =
      match faults with Some inj -> Fault_injector.draw_float inj | None -> 0.5
    in
    let len = String.length content in
    let cut = max 0 (min (len - 1) (int_of_float ((0.25 +. (0.5 *. u)) *. float_of_int len))) in
    write_string path (String.sub content 0 cut)
  end
  else if fires Fault_plan.Persist_enospc then begin
    (* Device full: the temporary file cannot be completed, so it is
       discarded and the previously published store survives untouched —
       atomic publication is the degradation. *)
    let tmp = path ^ ".tmp" in
    write_string tmp (String.sub content 0 (String.length content / 2));
    Sys.remove tmp
  end
  else Atomic_file.write path content

(* Whitespace-tolerant tokenizer: fleet reports come from many writers, so
   stray tabs, doubled spaces and trailing blanks must not poison a store. *)
let tokens line =
  String.split_on_char '\t' line
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun s -> s <> "")

type load_outcome =
  | Missing
  | Clean of int
  | Recovered of { entries : int; corrupt_lines : int }

let parse_footer line =
  match tokens line with
  | [ magic; cnt; sum ] when magic = footer_magic -> (
    match
      ( String.length cnt > 6 && String.sub cnt 0 6 = "count=",
        String.length sum > 4 && String.sub sum 0 4 = "sum=" )
    with
    | true, true -> (
      let cnt = String.sub cnt 6 (String.length cnt - 6) in
      let sum = String.sub sum 4 (String.length sum - 4) in
      match (int_of_string_opt cnt, Int64.of_string_opt ("0x" ^ sum)) with
      | Some n, Some s -> Some (n, s)
      | _ -> None)
    | _ -> None)
  | _ -> None

(* Read the whole file and split on '\n' ourselves rather than looping over
   [input_line]: a tear can cut a data line mid-token ("12345 6" out of
   "12345 67\n"), and the truncated tail still parses as a well-formed —
   but fabricated — context key.  [input_line] hides the missing
   terminator, so the only reliable tear signal is the raw final byte. *)
let read_lines path =
  let ic = open_in_bin path in
  let raw =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let lines = String.split_on_char '\n' raw in
  (* A terminated file ends "...\n" and splits into lines @ [""]; drop the
     empty sentinel.  Anything else means the last line was torn. *)
  match List.rev lines with
  | "" :: rev -> (List.rev rev, None)
  | torn :: rev -> (List.rev rev, Some torn)
  | [] -> ([], None)

let k_corrupt_lines = Metrics.counter_key "persist.corrupt_lines"
let k_recovered = Metrics.counter_key "persist.recovered"

let load_result ?metrics path =
  if not (Sys.file_exists path) then (create (), Missing)
  else begin
    let t = create () in
    let corrupt = ref 0 in
    let footer = ref None in
    let data = ref [] in
    let lines, torn = read_lines path in
    List.iter
      (fun line ->
        if String.length line > 0 && line.[0] = '#' then
          match parse_footer line with
          | Some f -> footer := Some f
          | None -> incr corrupt
        else
          match tokens line with
          | [] -> ()
          | [ a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some a, Some b ->
              add t (a, b);
              (* Re-render for the checksum: the writer normalized
                 whitespace, so a clean round-trip matches. *)
              data := Printf.sprintf "%d %d" a b :: !data
            | _ -> incr corrupt)
          | _ -> incr corrupt)
      lines;
    (* An unterminated final line is a tear by definition (the writer always
       terminates every line, footer included).  Even when the fragment
       parses as two integers it must not enter the store — it would pin a
       context that never produced evidence. *)
    (match torn with
    | Some frag -> if String.length frag > 0 then incr corrupt
    | None -> ());
    let data = List.rev !data in
    let intact =
      !corrupt = 0
      && match !footer with
         | None -> true (* legacy format: nothing to verify *)
         | Some (n, sum) -> n = List.length data && sum = checksum data
    in
    if intact then (t, Clean (count t))
    else begin
      (match metrics with
      | None -> ()
      | Some reg ->
        Metrics.add (Metrics.counter reg k_corrupt_lines) !corrupt;
        Metrics.add (Metrics.counter reg k_recovered) (count t));
      (t, Recovered { entries = count t; corrupt_lines = !corrupt })
    end
  end

let load ?metrics path = fst (load_result ?metrics path)
