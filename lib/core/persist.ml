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
