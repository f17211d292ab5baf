type t = {
  win : int;
  ring : Health.agg array;  (* slot = epoch index mod win *)
  mutable count : int;  (* lifetime pushes *)
}

let create ~size =
  if size < 1 then invalid_arg "Window.create: size must be >= 1";
  { win = size; ring = Array.make size Health.empty; count = 0 }

let push t a =
  t.ring.(t.count mod t.win) <- a;
  t.count <- t.count + 1

(* The ring's occupied slots in epoch order: oldest first. *)
let ordered t =
  let n = min t.count t.win in
  let start = if t.count <= t.win then 0 else t.count mod t.win in
  Array.init n (fun i -> t.ring.((start + i) mod t.win))

let aggregate t = Array.fold_left Health.merge Health.empty (ordered t)

type set = { windows : (int * t) list (* size-sorted *) }

let set sizes =
  let sizes = List.sort_uniq compare sizes in
  { windows = List.map (fun w -> (w, create ~size:w)) sizes }

let rows s =
  match s.windows with [] -> 0 | (_, t) :: _ -> t.count

let push_set s a = List.iter (fun (_, t) -> push t a) s.windows

let get s w =
  Option.map aggregate (List.assoc_opt w s.windows)
