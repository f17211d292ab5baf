(* Tests for Stats, Table_fmt and Int_index. *)

(* ---------- Stats ---------- *)

let feq = Alcotest.float 1e-9

let test_stats_mean () =
  Alcotest.check feq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.check feq "empty mean" 0.0 (Stats.mean [])

let test_stats_geomean () =
  Alcotest.check feq "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.check feq "with nonpositive" 0.0 (Stats.geomean [ 1.0; 0.0 ])

let test_stats_percentile () =
  let xs = [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  Alcotest.check feq "median" 3.0 (Stats.percentile 50.0 xs);
  Alcotest.check feq "max" 5.0 (Stats.percentile 100.0 xs);
  Alcotest.check feq "min-ish" 1.0 (Stats.percentile 1.0 xs);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty list")
    (fun () -> ignore (Stats.percentile 50.0 []))

let test_stats_stddev () =
  Alcotest.check feq "constant" 0.0 (Stats.stddev [ 2.0; 2.0; 2.0 ]);
  Alcotest.check feq "single" 0.0 (Stats.stddev [ 42.0 ]);
  Alcotest.check (Alcotest.float 1e-6) "known" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stats_clamp_ratio () =
  Alcotest.check feq "clamp low" 0.0 (Stats.clamp ~lo:0.0 ~hi:1.0 (-5.0));
  Alcotest.check feq "clamp high" 1.0 (Stats.clamp ~lo:0.0 ~hi:1.0 5.0);
  Alcotest.check feq "clamp pass" 0.5 (Stats.clamp ~lo:0.0 ~hi:1.0 0.5);
  Alcotest.check feq "ratio" 0.5 (Stats.ratio 1 2);
  Alcotest.check feq "ratio by zero" 0.0 (Stats.ratio 1 0)

(* ---------- Table_fmt ---------- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_table_fmt_render () =
  let t =
    Table_fmt.create ~title:"T"
      ~columns:[ ("name", Table_fmt.Left); ("n", Table_fmt.Right) ]
  in
  Table_fmt.add_row t [ "alpha"; "1" ];
  Table_fmt.add_separator t;
  Table_fmt.add_row t [ "b"; "100" ];
  let s = Table_fmt.render t in
  Alcotest.(check bool) "contains title" true (String.length s > 0 && String.sub s 0 1 = "T");
  Alcotest.(check bool) "right-aligns numbers" true (contains ~needle:"|   1 |" s)

let test_table_fmt_arity () =
  let t = Table_fmt.create ~title:"T" ~columns:[ ("a", Table_fmt.Left) ] in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Table_fmt.add_row: arity mismatch") (fun () ->
      Table_fmt.add_row t [ "x"; "y" ])

let test_table_fmt_numbers () =
  Alcotest.(check string) "thousands" "57,464" (Table_fmt.fmt_int 57464);
  Alcotest.(check string) "small" "9" (Table_fmt.fmt_int 9);
  Alcotest.(check string) "negative" "-1,234" (Table_fmt.fmt_int (-1234));
  Alcotest.(check string) "percent" "6.7%" (Table_fmt.fmt_percent 0.067);
  Alcotest.(check string) "float" "1.07" (Table_fmt.fmt_float 1.067)

(* ---------- Int_index ---------- *)

(* [count] distinct keys [(a, b)] whose home is cell [cell] of a table
   built by [create n]: a key bound alone in an empty table sits in its
   home cell. *)
let keys_homed_at g ~n ~cell ~b count =
  let t = Int_index.create n in
  let rec go acc k =
    if k = 0 then acc
    else begin
      let a = Prng.int g 1_000_000 in
      Int_index.add t a b 0;
      let home = Int_index.cell_value t cell = 0 in
      ignore (Int_index.remove t a b);
      if home && not (List.mem (a, b) acc) then go ((a, b) :: acc) (k - 1)
      else go acc k
    end
  in
  go [] count

(* Seeded add/replace/remove/find/locate-and-set/clear runs against a
   [Hashtbl] model,
   each over its own pool of keys:
   - keys forced into the last cell of a 16-cell table, plus neighbours
     homed at cells 0 and 1, so clusters wrap past the end and removals
     open holes in their middle (eight keys at most: the table never
     doubles);
   - pairs that differ only in [b];
   - 3,000 random keys from a 2-cell table, which doubles at least ten
     times.
   Every [clear_every] steps the table is cleared and fills up again. *)
let test_int_index_model () =
  let g = Prng.create ~seed:29 in
  let run name ~n ~steps ~clear_every pool =
    let t = Int_index.create n in
    let model = Hashtbl.create 64 in
    let pool = Array.of_list pool in
    let bound k = Option.value ~default:(-1) (Hashtbl.find_opt model k) in
    (* Checked by hand and named only on failure: Alcotest's [check]
       formats every message up front. *)
    let expect step what ~want got =
      if want <> got then
        Alcotest.failf "%s step %d: %s: expected %d, got %d" name step what want got
    in
    let check_all step =
      Array.iter
        (fun ((a, b) as k) ->
          expect step (Printf.sprintf "find (%d, %d)" a b) ~want:(bound k)
            (Int_index.find t a b))
        pool;
      let scanned = ref [] in
      for i = 0 to Int_index.cells t - 1 do
        let v = Int_index.cell_value t i in
        if v >= 0 then scanned := ((Int_index.cell_a t i, Int_index.cell_b t i), v) :: !scanned
      done;
      if
        List.sort compare !scanned
        <> List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
      then Alcotest.failf "%s step %d: the cell scan disagrees with the model" name step
    in
    for step = 1 to steps do
      let ((a, b) as k) = pool.(Prng.int g (Array.length pool)) in
      let v = Prng.int g 1_000 in
      (match if step mod clear_every = 0 then 100 else Prng.int g 100 with
      | r when r < 35 ->
        if Hashtbl.mem model k then
          Alcotest.check_raises "add of a bound key"
            (Invalid_argument "Int_index.add: key present") (fun () -> Int_index.add t a b v)
        else begin
          Int_index.add t a b v;
          Hashtbl.replace model k v
        end
      | r when r < 55 ->
        Int_index.replace t a b v;
        Hashtbl.replace model k v
      | r when r < 90 ->
        expect step "remove" ~want:(bound k) (Int_index.remove t a b);
        Hashtbl.remove model k
      | r when r < 95 -> expect step "find" ~want:(bound k) (Int_index.find t a b)
      | r when r < 100 ->
        (* read and rewrite one key in place, in one probe *)
        let i = Int_index.locate t a b in
        if Hashtbl.mem model k then begin
          expect step "located key a" ~want:a (Int_index.cell_a t i);
          expect step "located key b" ~want:b (Int_index.cell_b t i);
          expect step "located value" ~want:(bound k) (Int_index.cell_value t i);
          Int_index.set_cell_value t i v;
          Hashtbl.replace model k v
        end
        else expect step "locate absent" ~want:(-1) i
      | _ ->
        Int_index.clear t;
        Hashtbl.reset model);
      expect step "length" ~want:(Hashtbl.length model) (Int_index.length t);
      if Array.length pool < 50 || step mod 500 = 0 then check_all step
    done;
    check_all steps;
    Int_index.cells t
  in
  let wrap =
    keys_homed_at g ~n:8 ~cell:15 ~b:0 5
    @ keys_homed_at g ~n:8 ~cell:0 ~b:7 2
    @ keys_homed_at g ~n:8 ~cell:1 ~b:(-3) 1
  in
  Alcotest.(check int) "wrapping cluster: never doubled" 16
    (run "wrapping cluster" ~n:8 ~steps:10_000 ~clear_every:997 wrap);
  ignore
    (run "same a, different b" ~n:4 ~steps:2_000 ~clear_every:499
       (List.concat_map (fun a -> List.map (fun b -> (a, b)) [ 0; 1; -1; max_int ]) [ 5; 6 ]));
  let cells =
    run "doublings" ~n:0 ~steps:30_000 ~clear_every:15_000
      (List.init 3_000 (fun _ -> (Prng.int g 1_000_000, Prng.int g 4)))
  in
  Alcotest.(check bool) (Printf.sprintf "doublings: 2 cells grew to %d" cells) true
    (cells >= 2048);
  Alcotest.check_raises "negative value" (Invalid_argument "Int_index: negative value")
    (fun () -> Int_index.replace (Int_index.create 0) 1 0 (-1));
  let t = Int_index.create 0 in
  Int_index.add t 1 0 5;
  Alcotest.check_raises "set: negative value" (Invalid_argument "Int_index: negative value")
    (fun () -> Int_index.set_cell_value t (Int_index.locate t 1 0) (-1));
  Alcotest.check_raises "set: empty cell"
    (Invalid_argument "Int_index.set_cell_value: empty cell")
    (fun () -> Int_index.set_cell_value t (1 - Int_index.locate t 1 0) 3)

let suite =
  [ Alcotest.test_case "stats mean" `Quick test_stats_mean;
    Alcotest.test_case "stats geomean" `Quick test_stats_geomean;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats stddev" `Quick test_stats_stddev;
    Alcotest.test_case "stats clamp/ratio" `Quick test_stats_clamp_ratio;
    Alcotest.test_case "table render" `Quick test_table_fmt_render;
    Alcotest.test_case "table arity" `Quick test_table_fmt_arity;
    Alcotest.test_case "number formatting" `Quick test_table_fmt_numbers;
    Alcotest.test_case "Int_index matches a Hashtbl model" `Quick test_int_index_model ]
