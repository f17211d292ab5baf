(* One injector per execution: a PRNG stream derived from (plan seed, salt)
   that is consulted only at configured fault points, so an all-zero plan
   performs no draws at all and perturbs nothing. *)

type t = {
  plan : Fault_plan.t;
  salt : int;
  rng : Prng.t;
  mutable pending : (Fault_plan.point * float) list; (* unfired one-shots *)
  mutable forced : Fault_plan.point list; (* deterministic single-shots *)
  counts : (Fault_plan.point, int) Hashtbl.t;
}

(* splitmix64-style finalizer: decorrelates (plan seed, salt) pairs so
   neighbouring execution seeds get unrelated fault streams. *)
let mix a b =
  let open Int64 in
  let h = add (of_int a) (mul (of_int b) 0x9E3779B97F4A7C15L) in
  let h = mul (logxor h (shift_right_logical h 30)) 0xBF58476D1CE4E5B9L in
  let h = mul (logxor h (shift_right_logical h 27)) 0x94D049BB133111EBL in
  to_int (logxor h (shift_right_logical h 31)) land Stdlib.max_int

let create ~plan ~salt =
  { plan;
    salt;
    rng = Prng.create ~seed:(mix plan.Fault_plan.seed salt);
    pending = plan.Fault_plan.oneshots;
    forced = [];
    counts = Hashtbl.create 8 }


let record ?(n = 1) t point =
  let c = Option.value ~default:0 (Hashtbl.find_opt t.counts point) in
  Hashtbl.replace t.counts point (c + n)

let count t point =
  Option.value ~default:0 (Hashtbl.find_opt t.counts point)

let total t = Hashtbl.fold (fun _ n acc -> acc + n) t.counts 0

let take_oneshot t ?now point =
  let due at = match now with None -> true | Some s -> s >= at in
  let rec go acc = function
    | [] -> false
    | (p, at) :: rest when p = point && due at ->
      t.pending <- List.rev_append acc rest;
      true
    | entry :: rest -> go (entry :: acc) rest
  in
  go [] t.pending

let force t point = t.forced <- t.forced @ [ point ]

let take_forced t point =
  let rec go acc = function
    | [] -> false
    | p :: rest when p = point ->
      t.forced <- List.rev_append acc rest;
      true
    | p :: rest -> go (p :: acc) rest
  in
  go [] t.forced

let fire ?now t point =
  (* Forced single-shots are consumed first and, like zero-rate points,
     perform no draw — firing a forced fault leaves the plan's PRNG stream
     exactly where it was. *)
  let forced = t.forced <> [] && take_forced t point in
  let hit =
    forced
    || (t.pending <> [] && take_oneshot t ?now point)
    ||
    let r = Fault_plan.rate t.plan point in
    r > 0.0 && Prng.float t.rng < r
  in
  if hit then record t point;
  hit

let draw_float t = Prng.float t.rng

(* Scheduling-independent decision for parallel callers: the outcome is a
   pure function of (plan seed, point, index, attempt), so fleet workers
   reach the same verdicts for any domain count and interleaving.  The
   caller tallies via [record] after joining — [indexed] itself mutates
   nothing. *)
let indexed t point ~index ~attempt =
  List.exists
    (fun (p, at) -> p = point && attempt = 1 && int_of_float at = index)
    t.plan.Fault_plan.oneshots
  ||
  let r = Fault_plan.rate t.plan point in
  r > 0.0
  &&
  let g =
    Prng.create
      ~seed:
        (mix
           (mix t.plan.Fault_plan.seed (Fault_plan.point_id point))
           ((index * 2) + attempt))
  in
  Prng.float g < r

let summary t =
  let injected =
    List.filter_map
      (fun p ->
        match count t p with
        | 0 -> None
        | n -> Some (Printf.sprintf "%s=%d" (Fault_plan.point_name p) n))
      Fault_plan.all_points
  in
  Printf.sprintf "faults (%s): %s"
    (Fault_plan.to_string t.plan)
    (if injected = [] then "none injected" else String.concat " " injected)
