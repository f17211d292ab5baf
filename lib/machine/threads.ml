type tid = int

type info = { name : string; mutable alive : bool }

type t = {
  table : (tid, info) Hashtbl.t;
  (* Live threads in spawn order, maintained by spawn/exit (rare) so that
     reading it — once per watchpoint install — costs nothing. *)
  mutable live : tid list;
  mutable next : tid;
  mutable current : tid;
  mutable spawn_subs : (tid -> unit) list;
  mutable exit_subs : (tid -> unit) list;
}

let create () =
  let t =
    { table = Hashtbl.create 16; live = [ 0 ]; next = 1; current = 0;
      spawn_subs = []; exit_subs = [] }
  in
  Hashtbl.add t.table 0 { name = "main"; alive = true };
  t

let spawn t ~name =
  let tid = t.next in
  t.next <- tid + 1;
  Hashtbl.add t.table tid { name; alive = true };
  t.live <- t.live @ [ tid ];
  List.iter (fun f -> f tid) (List.rev t.spawn_subs);
  tid

let info_exn t tid =
  match Hashtbl.find_opt t.table tid with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Threads: unknown tid %d" tid)

let exit_thread t tid =
  if tid = 0 then invalid_arg "Threads.exit_thread: main thread cannot exit";
  let i = info_exn t tid in
  if not i.alive then invalid_arg (Printf.sprintf "Threads.exit_thread: tid %d already dead" tid);
  i.alive <- false;
  t.live <- List.filter (fun x -> x <> tid) t.live;
  if t.current = tid then t.current <- 0;
  List.iter (fun f -> f tid) (List.rev t.exit_subs)

let alive t = t.live
let alive_count t = List.length t.live

let name t tid =
  match Hashtbl.find_opt t.table tid with
  | Some i -> i.name
  | None -> raise Not_found

let current t = t.current

let set_current t tid =
  let i = info_exn t tid in
  if not i.alive then invalid_arg "Threads.set_current: dead thread";
  t.current <- tid

let on_spawn t f = t.spawn_subs <- f :: t.spawn_subs
let on_exit t f = t.exit_subs <- f :: t.exit_subs
