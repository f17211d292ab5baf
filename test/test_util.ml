(* Tests for Stats and Table_fmt. *)

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

let suite =
  [ Alcotest.test_case "stats mean" `Quick test_stats_mean;
    Alcotest.test_case "stats geomean" `Quick test_stats_geomean;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats stddev" `Quick test_stats_stddev;
    Alcotest.test_case "stats clamp/ratio" `Quick test_stats_clamp_ratio;
    Alcotest.test_case "table render" `Quick test_table_fmt_render;
    Alcotest.test_case "table arity" `Quick test_table_fmt_arity;
    Alcotest.test_case "number formatting" `Quick test_table_fmt_numbers ]
