type 'a t = 'a option ref Domain.DLS.key

let create () = Domain.DLS.new_key (fun () -> ref None)

let take t ~fresh =
  let slot = Domain.DLS.get t in
  match !slot with
  | Some v ->
    slot := None;
    v
  | None -> fresh ()

let give t v =
  let slot = Domain.DLS.get t in
  if Option.is_none !slot then slot := Some v
