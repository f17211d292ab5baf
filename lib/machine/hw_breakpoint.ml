type fd = int
type access_kind = Read | Write

let watch_len = 8
let num_slots = 4

type event = {
  ev_fd : fd;
  addr : int;
  tid : Threads.tid;
  slot : int; (* the debug register holding [addr] *)
  mutable enabled : bool;
  mutable configured : bool;
}

(* The debug-register file.  Slot [i] holds one distinct watched address
   and the number of open events on it, and is free again when that count
   drops to zero.  [armed.(i).(tid)] lists the slot's enabled events for
   thread [tid] in ascending fd order (normally at most one).  Opening,
   arming and the comparator each visit at most [num_slots] slots and one
   thread's list, so none of them grows with the number of threads or of
   open events — a watchpoint installed for every one of N threads costs N
   times one thread's install, not N squared. *)
type t = {
  events : event Int_table.t;
  slot_addr : int array;
  slot_refs : int array;
  armed : event list array array;
  mutable n_armed : int;
  mutable next_fd : fd;
  mutable syscalls : int;
  faults : Fault_injector.t option;
}

let create ?faults () =
  { events = Int_table.create 64;
    slot_addr = Array.make num_slots 0;
    slot_refs = Array.make num_slots 0;
    armed = Array.init num_slots (fun _ -> Array.make 8 []);
    n_armed = 0;
    next_fd = 100;
    syscalls = 0;
    faults }

(* The slot already watching [addr], else the lowest free one, else -1. *)
let slot_for t addr =
  let found = ref (-1) and free = ref (-1) in
  for i = num_slots - 1 downto 0 do
    if t.slot_refs.(i) = 0 then free := i
    else if t.slot_addr.(i) = addr then found := i
  done;
  if !found >= 0 then !found else !free

(* Thread [tid]'s armed lists of [slot], grown to cover [tid]. *)
let tid_lists t slot tid =
  let lists = t.armed.(slot) in
  if tid < Array.length lists then lists
  else begin
    let grown = Array.make (max (tid + 1) (2 * Array.length lists)) [] in
    Array.blit lists 0 grown 0 (Array.length lists);
    t.armed.(slot) <- grown;
    grown
  end

let arm t ev =
  let lists = tid_lists t ev.slot ev.tid in
  let rec ins = function
    | [] -> [ ev ]
    | e :: _ as l when ev.ev_fd < e.ev_fd -> ev :: l
    | e :: rest -> e :: ins rest
  in
  lists.(ev.tid) <- ins lists.(ev.tid);
  t.n_armed <- t.n_armed + 1

(* [l] without [ev], sharing the tail past it: removing a thread's only
   event allocates nothing. *)
let rec without ev = function
  | [] -> []
  | e :: rest -> if e == ev then rest else e :: without ev rest

let disarm t ev =
  let lists = t.armed.(ev.slot) in
  lists.(ev.tid) <- without ev lists.(ev.tid);
  t.n_armed <- t.n_armed - 1

let armed_count t = t.n_armed

(* Environmental failures are consulted first: a debugger squatting on the
   registers (EBUSY) or a permission change (EACCES) hits the syscall before
   the architectural slot check ever would. *)
let injected_failure t ~now =
  match t.faults with
  | None -> None
  | Some inj ->
    if Fault_injector.fire ?now inj Fault_plan.Perf_ebusy then Some `EBUSY
    else if Fault_injector.fire ?now inj Fault_plan.Perf_eacces then Some `EACCES
    else None

let perf_event_open ?now t ~addr ~tid =
  t.syscalls <- t.syscalls + 1;
  match injected_failure t ~now with
  | Some e -> Error e
  | None ->
  let slot = slot_for t addr in
  if slot < 0 then Error `ENOSPC
  else begin
    t.slot_addr.(slot) <- addr;
    t.slot_refs.(slot) <- t.slot_refs.(slot) + 1;
    let fd = t.next_fd in
    t.next_fd <- fd + 1;
    Int_table.add t.events fd
      { ev_fd = fd; addr; tid; slot; enabled = false; configured = false };
    Ok fd
  end

let event_exn t fd =
  match Int_table.find t.events fd with
  | ev -> ev
  | exception Not_found -> invalid_arg (Printf.sprintf "Hw_breakpoint: bad fd %d" fd)

let fcntl_setup t fd =
  t.syscalls <- t.syscalls + 4;
  (event_exn t fd).configured <- true

let ioctl_enable t fd =
  t.syscalls <- t.syscalls + 1;
  let ev = event_exn t fd in
  if not ev.enabled then begin
    ev.enabled <- true;
    arm t ev
  end

let ioctl_disable t fd =
  t.syscalls <- t.syscalls + 1;
  let ev = event_exn t fd in
  if ev.enabled then begin
    ev.enabled <- false;
    disarm t ev
  end

let close t fd =
  t.syscalls <- t.syscalls + 1;
  let ev = event_exn t fd in
  if ev.enabled then disarm t ev;
  t.slot_refs.(ev.slot) <- t.slot_refs.(ev.slot) - 1;
  Int_table.remove t.events fd

let ranges_overlap a1 l1 a2 l2 = a1 < a2 + l2 && a2 < a1 + l1

(* Lowest armed fd of thread [tid] among the slots [addr, addr+len)
   overlaps, or [max_int]. *)
let first_armed t ~addr ~len ~tid =
  let best = ref max_int in
  for slot = 0 to num_slots - 1 do
    if
      t.slot_refs.(slot) > 0
      && ranges_overlap addr len t.slot_addr.(slot) watch_len
    then begin
      let lists = t.armed.(slot) in
      if tid >= 0 && tid < Array.length lists then
        match lists.(tid) with
        | ev :: _ when ev.ev_fd < !best -> best := ev.ev_fd
        | _ -> ()
    end
  done;
  !best

let check_access t ~addr ~len ~kind:_ ~tid =
  (* HW_BREAKPOINT_RW fires on both reads and writes, so [kind] does not
     filter; it is carried for the trap report. *)
  if t.n_armed = 0 then None
  else
    let fd = first_armed t ~addr ~len ~tid in
    if fd = max_int then None else Some fd

let watched_addrs t =
  List.filter_map
    (fun slot -> if t.slot_refs.(slot) > 0 then Some t.slot_addr.(slot) else None)
    (List.init num_slots Fun.id)

let syscall_count t = t.syscalls
let live_fd_count t = Int_table.length t.events
