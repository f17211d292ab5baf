(* Helper for the at-exit flush test in test_obs: streams into FILE from
   inside a recording — a small line, then one larger than the channel's
   buffer, so part of it is on disk and its tail is still buffered — and
   calls [exit] before the recording ends, so only the stdlib's exit-time
   flush of every open channel can complete the stream.

     exit_mid_stream FILE

   Exits 3 if the stream was not torn on disk before [exit], which would
   make the check vacuous. *)

let () =
  let path = Sys.argv.(1) in
  let oc = open_out_bin path in
  let r = Flight_recorder.create ~capacity:4 ~stream:oc () in
  Flight_recorder.with_recorder r (fun () ->
      Flight_recorder.stream_event "first" [ ("k", `Int 1) ];
      Flight_recorder.stream_event "big" [ ("blob", `String (String.make 100_000 'x')) ];
      Flight_recorder.free ~at:1 ~addr:64;
      let on_disk = In_channel.with_open_bin path In_channel.input_all in
      if on_disk = "" || on_disk.[String.length on_disk - 1] = '\n' then exit 3;
      exit 0)
