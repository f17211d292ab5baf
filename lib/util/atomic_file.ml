let write path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  try
    output_string oc content;
    close_out oc;
    Sys.rename tmp path
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt
