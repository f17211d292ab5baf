(* A store maps each convicted context key to its evidence hit count.  The
   key set is what pins contexts at 100% watch probability; the counts feed
   the code-less patching policy (a context is patched once its count
   reaches the conviction threshold).  The on-disk format is unchanged —
   counts are an in-memory, mergeable refinement.

   The store is one {!Int_index} from (call site, stack offset) to the
   count, so [mem] on the allocation path calls no generic hash and [copy]
   is one blit. *)
type t = Int_index.t

let create () = Int_index.create 0

(* Add [n] hits to (site, off), binding it if absent. *)
let add_hits t site off n =
  Int_index.replace t site off (Int.max 0 (Int_index.find t site off) + n)

let mem t (site, off) = Int_index.find t site off >= 0
let add t (site, off) = add_hits t site off 1
let hits t (site, off) = Int.max 0 (Int_index.find t site off)
let count = Int_index.length

let keys t =
  let acc = ref [] in
  for i = 0 to Int_index.cells t - 1 do
    if Int_index.cell_value t i >= 0 then
      acc := (Int_index.cell_a t i, Int_index.cell_b t i) :: !acc
  done;
  List.sort compare !acc

let merge dst src =
  for i = 0 to Int_index.cells src - 1 do
    let n = Int_index.cell_value src i in
    if n >= 0 then add_hits dst (Int_index.cell_a src i) (Int_index.cell_b src i) n
  done

let copy = Int_index.copy

(* Fold [src] into [dst] counting only the evidence [src] gained over
   [base].  The fleet snapshots the shared store into [base] at each epoch
   barrier and hands executions full copies (hit counts included, so patch
   conviction sees real evidence); merging back the {e delta} keeps the
   shared counts exact — evidence inherited from the snapshot is never
   counted twice, while every key set operation stays a plain merge. *)
let merge_delta dst ~base src =
  for i = 0 to Int_index.cells src - 1 do
    let n = Int_index.cell_value src i in
    if n >= 0 then begin
      let site = Int_index.cell_a src i and off = Int_index.cell_b src i in
      let b = Int.max 0 (Int_index.find base site off) in
      if n > b then add_hits dst site off (n - b)
    end
  done

(* ---------- on-disk format ----------

   Data lines are the historical ["site stack_offset"] pairs, sorted.  Since
   format 2 the last line is a footer

     #csod.store/2 count=N sum=XXXXXXXXXXXXXXXX

   carrying the entry count and an FNV-1a checksum of the data lines, so a
   reader can tell a complete store from a torn one.  The footer is
   mandatory: a footer-less file may be a tear that landed on a line
   boundary, so it loads as recovered, never clean. *)

(* Each line is followed by a terminator byte so ["ab";"c"] and
   ["a";"bc"] differ. *)
let checksum lines =
  List.fold_left (fun h line -> Fnv.byte (Fnv.string h line) 0x0a) Fnv.offset
    lines

(* The footer of these data lines, byte for byte. *)
let footer lines =
  Printf.sprintf "#csod.store/2 count=%d sum=%016Lx" (List.length lines)
    (checksum lines)

let render t =
  let lines = List.map (fun (a, b) -> Printf.sprintf "%d %d" a b) (keys t) in
  String.concat "" (List.map (fun l -> l ^ "\n") (lines @ [ footer lines ]))

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

let k_corrupt_lines = Metrics.counter_key "persist.corrupt_lines"
let k_recovered = Metrics.counter_key "persist.recovered"

let load_result ?metrics path =
  if not (Sys.file_exists path) then (create (), Missing)
  else begin
    let t = create () in
    (* Every line is a key or the footer.  An empty line or the torn final
       fragment ({!Lines}) is corrupt: even when a fragment parses as two
       integers it must not enter the store — it would pin a context that
       never produced evidence. *)
    let corrupt, found, data =
      Lines.fold
        (fun (corrupt, found, data) _ line ->
          match line with
          | Ok l when l.[0] = '#' && found = None -> (corrupt, Some l, data)
          | Ok l -> (
            match List.map int_of_string_opt (tokens l) with
            | [ Some a; Some b ] ->
              add t (a, b);
              (* Re-render for the checksum: the writer normalized
                 whitespace, so a clean round-trip matches. *)
              (corrupt, found, Printf.sprintf "%d %d" a b :: data)
            | _ -> (corrupt + 1, found, data))
          | Error _ -> (corrupt + 1, found, data))
        (0, None, [])
        (In_channel.with_open_bin path In_channel.input_all)
    in
    let agrees =
      Option.fold ~none:true ~some:(String.equal (footer (List.rev data))) found
    in
    if found <> None && agrees && corrupt = 0 then (t, Clean (count t))
    else begin
      (* A footer that disagrees with the data means a line changed after
         the write, and which one is unknown: keeping any key could keep a
         made-up one. *)
      let t = if agrees then t else create () in
      (match metrics with
      | None -> ()
      | Some reg ->
        Metrics.add (Metrics.counter reg k_corrupt_lines) corrupt;
        Metrics.add (Metrics.counter reg k_recovered) (count t));
      (t, Recovered { entries = count t; corrupt_lines = corrupt })
    end
  end

let load ?metrics path = fst (load_result ?metrics path)
