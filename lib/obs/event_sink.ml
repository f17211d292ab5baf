(* [line] is rendered into afresh by every event and handed to [out]. *)
type t = {
  out : Buffer.t -> unit;
  flush : unit -> unit;
  line : Buffer.t;
  mutable events : int;
}

let of_out ?(flush = fun () -> ()) out =
  { out; flush; line = Buffer.create 256; events = 0 }

let make ?flush write = of_out ?flush (fun line -> write (Buffer.contents line))

let to_channel oc =
  of_out
    (fun line -> Buffer.output_buffer oc line; output_char oc '\n')
    ~flush:(fun () -> flush oc)

let to_buffer buf =
  of_out (fun line -> Buffer.add_buffer buf line; Buffer.add_char buf '\n')

let events t = t.events

(* The installed sink is process-global: emission sites are module-level
   functions with no handle to thread a sink through (mirroring how the
   paper's runtime logs from signal handlers).  [active] is the one-branch
   guard every instrumentation site checks before building fields. *)
let current : t option ref = ref None

let install t = current := Some t

(* Flushing on uninstall is the no-truncation guarantee: a JSONL file is
   complete up to its last newline the moment the sink is detached, even
   if the process later exits without closing the channel. *)
let uninstall () =
  (match !current with Some t -> t.flush () | None -> ());
  current := None

let active () = !current <> None

let flush_installed () = match !current with Some t -> t.flush () | None -> ()

(* A run killed by [exit] (a CLI error path, a test harness, a fleet driver
   hitting its deadline) must not leave the stream's final line buffered in
   a channel: whatever sink is installed at exit gets one last flush, so
   the on-disk JSONL is complete up to its last newline. *)
let () = at_exit flush_installed

let emit name fields =
  match !current with
  | None -> ()
  | Some t ->
    t.events <- t.events + 1;
    Buffer.clear t.line;
    Obs_json.write t.line (`Assoc (("event", `String name) :: fields));
    t.out t.line

let with_sink t f =
  let prev = !current in
  current := Some t;
  Fun.protect
    ~finally:(fun () ->
      t.flush ();
      current := prev)
    f
