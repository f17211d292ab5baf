type row = {
  app : string;
  vuln : string;
  first_run_watchpoint : bool;
  first_run_evidence : bool;
  second_run_watchpoint : bool;
}

let is_write (a : Buggy_app.t) = a.Buggy_app.vuln = Report.Over_write

let has_source reports src =
  List.exists (fun r -> r.Report.source = src) reports

let second_execution ?(seed = 1) () =
  Buggy_app.all ()
  |> List.filter is_write
  |> List.map (fun app ->
         let store = Persist.create () in
         let config = Config.csod_default in
         let o1 = Execution.run ~app ~config ~seed ~store () in
         let o2 = Execution.run ~app ~config ~seed:(seed + 1) ~store () in
         { app = app.Buggy_app.name;
           vuln = "Over-write";
           first_run_watchpoint = has_source o1.Execution.reports Report.Watchpoint;
           first_run_evidence =
             has_source o1.Execution.reports Report.Canary_free
             || has_source o1.Execution.reports Report.Canary_exit;
           second_run_watchpoint = has_source o2.Execution.reports Report.Watchpoint })

let fleet ~app ~users ?(policy = Params.Near_fifo) () =
  (* One arrival per epoch on one domain: each user starts from every
     earlier user's evidence, and user uid runs seed uid. *)
  let t =
    Fleet.start
      (Fleet.config ~domains:1 ~epoch_size:1
         (Workload.make ~base_seed:1 ~benign_frac:0.0 ~users ()))
      ~execute:
        (Execution.executor ~app
           ~config:(Config.csod_with_policy policy ~evidence:true) ())
  in
  while Fleet.first_catch t = None && Fleet.arrived t < users do
    ignore (Fleet.step t ~arrivals:1)
  done;
  Option.bind (Fleet.first_catch t) (fun s ->
      Option.map (fun src -> (s.Fleet.user.Workload.uid, src)) s.Fleet.exec.Fleet.source)
