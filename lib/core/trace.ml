(* Each trace point checks [Event_sink.active] before building its fields:
   with no JSONL sink installed it costs exactly that one test. *)
let decision ~watched ~prob ~key:(site, off) ~addr =
  if Event_sink.active () then
    Event_sink.emit "smu.decision"
      [ ("addr", `Int addr); ("site", `Int site); ("stack_offset", `Int off);
        ("prob", `Float prob); ("watched", `Bool watched) ]

let replaced ~victim ~by =
  if Event_sink.active () then
    Event_sink.emit "wmu.replace" [ ("victim", `Int victim); ("by", `Int by) ]

let removed_on_free ~addr =
  if Event_sink.active () then
    Event_sink.emit "wmu.free_removal" [ ("addr", `Int addr) ]

let trap ~addr ~kind ~tid =
  if Event_sink.active () then
    Event_sink.emit "trap"
      [ ("addr", `Int addr); ("kind", `String kind); ("tid", `Int tid) ]

let canary ~addr ~where =
  if Event_sink.active () then
    Event_sink.emit "canary.corrupt"
      [ ("addr", `Int addr); ("where", `String where) ]

let degraded () =
  if Event_sink.active () then Event_sink.emit "runtime.degraded" []
