type burst = Steady | Frontload | Wave

let burst_name = function
  | Steady -> "steady"
  | Frontload -> "frontload"
  | Wave -> "wave"

let burst_of_string s =
  match String.lowercase_ascii s with
  | "steady" -> Some Steady
  | "frontload" | "front-load" -> Some Frontload
  | "wave" -> Some Wave
  | _ -> None

type t = {
  users : int;
  benign_frac : float;
  base_seed : int;
  burst : burst;
  wave_period : int;
}

let make ?(benign_frac = 0.0) ?(base_seed = 1) ?(burst = Steady)
    ?(wave_period = 2) ~users () =
  if users < 0 then invalid_arg "Workload.make: negative population";
  if benign_frac < 0.0 || benign_frac > 1.0 then
    invalid_arg "Workload.make: benign_frac outside [0, 1]";
  if wave_period < 1 then invalid_arg "Workload.make: wave_period < 1";
  { users; benign_frac; base_seed; burst; wave_period }

type user = { uid : int; seed : int; benign : bool }

let table : t Schema.field list =
  Schema.Field.
    [ int "users" (fun w -> w.users) (fun w users -> { w with users });
      float "benign_frac" (fun w -> w.benign_frac) (fun w x -> { w with benign_frac = x });
      int ~min:min_int "base_seed" (fun w -> w.base_seed) (fun w n -> { w with base_seed = n });
      conv "burst" String
        (fun b -> `String (burst_name b))
        (function `String s -> burst_of_string s | _ -> None)
        (fun w -> w.burst) (fun w burst -> { w with burst });
      int ~min:1 "wave_period" (fun w -> w.wave_period) (fun w n -> { w with wave_period = n }) ]

let user t uid =
  if uid < 1 || uid > t.users then invalid_arg "Workload.user: uid out of range";
  (* A private generator keyed on (base_seed, uid): the draw is the same
     whether users are built in order, in parallel, or one at a time. *)
  let g = Prng.create ~seed:((t.base_seed * 1_000_003) + uid) in
  { uid;
    seed = t.base_seed + uid - 1;
    benign = t.benign_frac > 0.0 && Prng.below_percent g t.benign_frac }

(* Arrival rate for epoch [e], in users, as a multiple of the mean rate.
   Every shape keeps at least one arrival per epoch so a fleet always
   drains, and the wave's heavy half-period comes first: however long the
   diurnal period, the first cohort is admitted at epoch 0 rather than
   idling through a leading trough. *)
let rate t ~epoch_size e =
  if epoch_size < 1 then invalid_arg "Workload.rate: epoch_size < 1";
  if e < 0 then invalid_arg "Workload.rate: negative epoch";
  let s = epoch_size in
  let r =
    match t.burst with
    | Steady -> s
    | Frontload ->
      (* Launch spike: 2x, 1.5x, 1x, then settling at 0.5x. *)
      max (s / 2) ((2 * s) - (e * s / 2))
    | Wave ->
      (* Heavy while inside the first half of the period (the half-open
         rounding puts the odd epoch of an odd period on the heavy side),
         light for the rest. *)
      if (e mod t.wave_period) * 2 < t.wave_period then s + (s / 2) else s / 2
  in
  max 1 r

let arrivals t ~epoch_size =
  if epoch_size < 1 then invalid_arg "Workload.arrivals: epoch_size < 1";
  let out = ref [] in
  let left = ref t.users in
  let e = ref 0 in
  while !left > 0 do
    let n = min !left (rate t ~epoch_size !e) in
    out := n :: !out;
    left := !left - n;
    incr e
  done;
  Array.of_list (List.rev !out)
