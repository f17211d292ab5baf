type phase =
  | App
  | Init
  | Alloc_fast
  | Smu_lookup
  | Smu_decision
  | Wmu_install
  | Wmu_evict
  | Wmu_replace
  | Trap_dispatch
  | Canary_plant
  | Canary_check
  | Asan_shadow
  | Asan_poison

let all =
  [ App; Init; Alloc_fast; Smu_lookup; Smu_decision; Wmu_install; Wmu_evict;
    Wmu_replace; Trap_dispatch; Canary_plant; Canary_check; Asan_shadow;
    Asan_poison ]

let[@inline] index = function
  | App -> 0
  | Init -> 1
  | Alloc_fast -> 2
  | Smu_lookup -> 3
  | Smu_decision -> 4
  | Wmu_install -> 5
  | Wmu_evict -> 6
  | Wmu_replace -> 7
  | Trap_dispatch -> 8
  | Canary_plant -> 9
  | Canary_check -> 10
  | Asan_shadow -> 11
  | Asan_poison -> 12

let num_phases = List.length all

let name = function
  | App -> "app"
  | Init -> "tool.init"
  | Alloc_fast -> "alloc.fast_path"
  | Smu_lookup -> "smu.lookup"
  | Smu_decision -> "smu.decision"
  | Wmu_install -> "wmu.install"
  | Wmu_evict -> "wmu.evict"
  | Wmu_replace -> "wmu.replace"
  | Trap_dispatch -> "trap.dispatch"
  | Canary_plant -> "canary.plant"
  | Canary_check -> "canary.check"
  | Asan_shadow -> "asan.shadow_check"
  | Asan_poison -> "asan.poison"

type t = { cells : int array }

let create () = { cells = Array.make num_phases 0 }

let[@inline] charge t phase n =
  if n < 0 then invalid_arg "Profiler.charge: negative cycles";
  let i = index phase in
  t.cells.(i) <- t.cells.(i) + n

let cells t = t.cells
let cycles t phase = t.cells.(index phase)

let total t = Array.fold_left ( + ) 0 t.cells

let tool_total t = total t - cycles t App
(** Everything except modeled application compute: the per-run overhead the
    Figure 7 decomposition attributes to the tools. *)

let to_list t = List.map (fun p -> (p, cycles t p)) all

let nonzero t = List.filter (fun (_, c) -> c > 0) (to_list t)

let reset t = Array.fill t.cells 0 num_phases 0

let merge_into ~dst ~src =
  Array.iteri (fun i n -> dst.cells.(i) <- dst.cells.(i) + n) src.cells

let to_json t : Obs_json.t =
  `Assoc
    (("total", `Int (total t))
    :: ("tool_total", `Int (tool_total t))
    :: List.map (fun (p, c) -> (name p, `Int c)) (to_list t))
