type t = { callsite : int; stack_offset : int; backtrace : unit -> int list }

type key = int * int

let key t = (t.callsite, t.stack_offset)

let synthetic ?(stack_offset = 0) ~callsite () =
  { callsite; stack_offset; backtrace = (fun () -> [ callsite ]) }
