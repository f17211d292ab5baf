type fd = int
type access_kind = Read | Write

let watch_len = 8
let num_slots = 4

let enospc = -28
let ebusy = -16
let eacces = -13

(* The open events live in one {!Int_index} from fd to the event it
   names, packed as [tid lsl 3 lor slot lsl 1 lor enabled].  The table is
   sized by the events open at once, never by the fds a machine has
   handed out, which grow without bound.

   The debug-register file: slot [i] holds one distinct watched address
   and the number of open events on it, and is free again when that count
   drops to zero.  [armed_min.(tid * num_slots + i)] is the lowest enabled
   fd of thread [tid] on slot [i] ([max_int] when none) and [armed_n] the
   number of them (normally at most one).  Opening, arming and the
   comparator each visit at most [num_slots] slots and one thread's row,
   so none of them grows with the number of threads or of open events — a
   watchpoint installed for every one of N threads costs N times one
   thread's install, not N squared.  Nothing here allocates once the
   table and the rows cover the events and threads in use. *)
type t = {
  events : Int_index.t;
  slot_addr : int array;
  slot_refs : int array;
  mutable armed_min : int array;
  mutable armed_n : int array;
  mutable n_armed : int;
  mutable next_fd : fd;
  mutable syscalls : int;
  faults : Fault_injector.t option;
}

let initial_tids = 8

let create ?faults () =
  { events = Int_index.create 8;
    slot_addr = Array.make num_slots 0;
    slot_refs = Array.make num_slots 0;
    armed_min = Array.make (initial_tids * num_slots) max_int;
    armed_n = Array.make (initial_tids * num_slots) 0;
    n_armed = 0;
    next_fd = 100;
    syscalls = 0;
    faults }

let[@inline] info_tid info = info lsr 3
let[@inline] info_slot info = (info lsr 1) land 3
let[@inline] info_enabled info = info land 1 = 1

(* The cell of the event an open [fd] names, so a toggle reads and
   rewrites it in one probe; raises on a closed or unknown fd. *)
let cell_exn t fd =
  let i = Int_index.locate t.events fd 0 in
  if i < 0 then invalid_arg (Printf.sprintf "Hw_breakpoint: bad fd %d" fd);
  i

(* ---------- Per-thread armed rows ---------- *)

let cover_tid t tid =
  let n = Array.length t.armed_min in
  if (tid + 1) * num_slots > n then begin
    let m = max ((tid + 1) * num_slots) (2 * n) in
    let grown a fill = let b = Array.make m fill in Array.blit a 0 b 0 n; b in
    t.armed_min <- grown t.armed_min max_int;
    t.armed_n <- grown t.armed_n 0
  end

let arm t fd info =
  let tid = info_tid info in
  cover_tid t tid;
  let r = (tid * num_slots) + info_slot info in
  if fd < t.armed_min.(r) then t.armed_min.(r) <- fd;
  t.armed_n.(r) <- t.armed_n.(r) + 1;
  t.n_armed <- t.n_armed + 1

(* The lowest enabled fd left on [info]'s slot and thread: a scan of the
   table, needed only when one thread holds several events on one
   address. *)
let lowest_armed t info =
  let best = ref max_int in
  for i = 0 to Int_index.cells t.events - 1 do
    let fd = Int_index.cell_a t.events i in
    if Int_index.cell_value t.events i = info && fd < !best then best := fd
  done;
  !best

(* [info] is the event's, already marked disabled in the table. *)
let disarm t fd info =
  let r = (info_tid info * num_slots) + info_slot info in
  t.armed_n.(r) <- t.armed_n.(r) - 1;
  t.n_armed <- t.n_armed - 1;
  if t.armed_min.(r) = fd then
    t.armed_min.(r) <-
      (if t.armed_n.(r) = 0 then max_int else lowest_armed t (info lor 1))

let armed_count t = t.n_armed

(* ---------- The syscall surface ---------- *)

(* The slot already watching [addr], else the lowest free one, else -1. *)
let slot_for t addr =
  let found = ref (-1) and free = ref (-1) in
  for i = num_slots - 1 downto 0 do
    if t.slot_refs.(i) = 0 then free := i
    else if t.slot_addr.(i) = addr then found := i
  done;
  if !found >= 0 then !found else !free

(* Environmental failures are consulted first: a debugger squatting on the
   registers (EBUSY) or a permission change (EACCES) hits the syscall before
   the architectural slot check ever would. *)
let injected_failure t ~now =
  match t.faults with
  | None -> 0
  | Some inj ->
    if Fault_injector.fire ?now inj Fault_plan.Perf_ebusy then ebusy
    else if Fault_injector.fire ?now inj Fault_plan.Perf_eacces then eacces
    else 0

(* The open, and with [armed] the fcntl setup and the enable that follow
   it in Figure 3: the fresh event is bound enabled, so the three calls
   probe the table once. *)
let open_with ?now t ~addr ~tid ~armed =
  if tid < 0 then invalid_arg "Hw_breakpoint: negative tid";
  t.syscalls <- t.syscalls + 1;
  let failure = injected_failure t ~now in
  if failure < 0 then failure
  else
    let slot = slot_for t addr in
    if slot < 0 then enospc
    else begin
      t.slot_addr.(slot) <- addr;
      t.slot_refs.(slot) <- t.slot_refs.(slot) + 1;
      let fd = t.next_fd in
      t.next_fd <- fd + 1;
      let info = (tid lsl 3) lor (slot lsl 1) in
      if armed then begin
        t.syscalls <- t.syscalls + 5;
        Int_index.add t.events fd 0 (info lor 1);
        arm t fd info
      end
      else Int_index.add t.events fd 0 info;
      fd
    end

let open_event ?now t ~addr ~tid = open_with ?now t ~addr ~tid ~armed:false
let open_armed ?now t ~addr ~tid = open_with ?now t ~addr ~tid ~armed:true

let open_result r =
  if r >= 0 then Ok r
  else if r = enospc then Error `ENOSPC
  else if r = ebusy then Error `EBUSY
  else Error `EACCES

let perf_event_open ?now t ~addr ~tid = open_result (open_event ?now t ~addr ~tid)

let fcntl_setup t fd =
  t.syscalls <- t.syscalls + 4;
  ignore (cell_exn t fd)

let ioctl_enable t fd =
  t.syscalls <- t.syscalls + 1;
  let i = cell_exn t fd in
  let info = Int_index.cell_value t.events i in
  if not (info_enabled info) then begin
    Int_index.set_cell_value t.events i (info lor 1);
    arm t fd info
  end

let ioctl_disable t fd =
  t.syscalls <- t.syscalls + 1;
  let i = cell_exn t fd in
  let info = Int_index.cell_value t.events i in
  if info_enabled info then begin
    Int_index.set_cell_value t.events i (info lxor 1);
    disarm t fd info
  end

(* Close [fd] as [calls] syscalls: 1 for a close, 2 for the disable and
   close of Figure 4, which then probe the table once.  A bad fd is
   refused after the first call is counted, as the disable would be. *)
let close_as t fd calls =
  t.syscalls <- t.syscalls + 1;
  let info = Int_index.remove t.events fd 0 in
  if info < 0 then invalid_arg (Printf.sprintf "Hw_breakpoint: bad fd %d" fd);
  t.syscalls <- t.syscalls + calls - 1;
  let slot = info_slot info in
  if info_enabled info then disarm t fd (info lxor 1);
  t.slot_refs.(slot) <- t.slot_refs.(slot) - 1

let close t fd = close_as t fd 1
let disable_close t fd = close_as t fd 2

(* ---------- Hardware side ---------- *)

let ranges_overlap a1 l1 a2 l2 = a1 < a2 + l2 && a2 < a1 + l1

(* Lowest armed fd of thread [tid] among the slots [addr, addr+len)
   overlaps, or [max_int]. *)
let first_armed t ~addr ~len ~tid =
  let best = ref max_int in
  if tid >= 0 && (tid + 1) * num_slots <= Array.length t.armed_min then
    for slot = 0 to num_slots - 1 do
      if
        t.slot_refs.(slot) > 0
        && ranges_overlap addr len t.slot_addr.(slot) watch_len
      then begin
        let fd = t.armed_min.((tid * num_slots) + slot) in
        if fd < !best then best := fd
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
  let rec from slot =
    if slot = num_slots then []
    else if t.slot_refs.(slot) > 0 then t.slot_addr.(slot) :: from (slot + 1)
    else from (slot + 1)
  in
  from 0

let syscall_count t = t.syscalls
let live_fd_count t = Int_index.length t.events
