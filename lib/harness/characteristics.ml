type table1_row = { app : string; vulnerability : string; reference : string }

let table1 () =
  List.map
    (fun (a : Buggy_app.t) ->
      { app = a.Buggy_app.name;
        vulnerability =
          (match a.Buggy_app.vuln with
          | Report.Over_read -> "Over-read"
          | Report.Over_write -> "Over-write");
        reference = a.Buggy_app.reference })
    (Buggy_app.all ())

type table3_row = {
  app : string;
  total_contexts : int;
  total_allocations : int;
  before_contexts : int;
  before_allocations : int;
  detected_kind : string;
  ambiguous_keys : int;
  ambiguous_allocations : int;
}

let table3 () =
  List.map
    (fun (a : Buggy_app.t) ->
      match Oracle.observe ~app:a ~input:Execution.Buggy () with
      | Error e -> failwith (Printf.sprintf "oracle run of %s crashed: %s" a.Buggy_app.name e)
      | Ok t -> (
        match Oracle.first_overflow t with
        | None ->
          failwith (Printf.sprintf "oracle run of %s saw no overflow" a.Buggy_app.name)
        | Some o ->
          { app = a.Buggy_app.name;
            total_contexts = Oracle.total_contexts t;
            total_allocations = Oracle.total_allocations t;
            before_contexts = o.Oracle.contexts_before;
            before_allocations = o.Oracle.allocs_before;
            detected_kind =
              (match o.Oracle.kind with
              | Tool.Read -> "Over-read"
              | Tool.Write -> "Over-write");
            ambiguous_keys = Oracle.ambiguous_keys t;
            ambiguous_allocations = Oracle.ambiguous_allocations t }))
    (Buggy_app.all ())

type table4_row = {
  app : string;
  loc : int;
  contexts : int;
  allocations : int;
  watched_times : int;
  sim_scale : int;
}

let table4 ?(progress = fun _ -> ()) () =
  List.map
    (fun (p : Perf_profile.t) ->
      let r = Perf_driver.run ~profile:p ~config:Config.csod_default () in
      progress (Printf.sprintf "%s: WT=%d" p.Perf_profile.name r.Perf_driver.watched_times);
      { app = p.Perf_profile.name;
        loc = p.Perf_profile.loc;
        contexts = p.Perf_profile.contexts;
        allocations = p.Perf_profile.allocations;
        watched_times = r.Perf_driver.watched_times;
        sim_scale = r.Perf_driver.scale })
    (Perf_profile.all ())
