let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.0
  | xs ->
    let logs = List.map (fun x -> if x <= 0.0 then neg_infinity else log x) xs in
    let m = mean logs in
    if m = neg_infinity then 0.0 else exp m

let percentile p xs =
  if xs = [] then invalid_arg "Stats.percentile: empty list";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = List.sort compare xs in
  let n = List.length sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  let idx = max 0 (min (n - 1) (rank - 1)) in
  List.nth sorted idx

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) ** 2.0) xs) in
    sqrt var

let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
