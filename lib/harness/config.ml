type t =
  | Baseline
  | Csod of Params.t
  | Asan of { redzone : int }

let csod_default = Csod Params.default
let csod_no_evidence = Csod { Params.default with Params.evidence = false }

let csod_with_policy policy ~evidence =
  Csod { Params.default with Params.policy; evidence }

let asan_min_redzone = Asan { redzone = 16 }
let asan_default = Asan { redzone = 128 }

let label = function
  | Baseline -> "baseline"
  | Csod p ->
    if p.Params.evidence then
      Printf.sprintf "CSOD (%s)" (Params.policy_name p.Params.policy)
    else Printf.sprintf "CSOD w/o evidence (%s)" (Params.policy_name p.Params.policy)
  | Asan { redzone } ->
    if redzone <= 16 then "ASan w/ minimal redzones" else "ASan"

type instance = {
  tool : Tool.t;
  finish : unit -> unit;
  detected : unit -> bool;
  csod : Runtime.t option;
  asan : Asan.t option;
  respond : Respond.t option;
  startup_cycles : int;
}

let instantiate t ~machine ~heap ?(instrumented = fun _ -> true) ?store
    ?(respond = Respond.Off) ?(seed = 0) () =
  (* [Off] constructs no layer at all: the tools receive [None] and behave
     bit-identically to a build that predates the response code. *)
  let rsp =
    match (t, respond) with
    | Baseline, _ | _, Respond.Off -> None
    | _, m -> Some (Respond.create m ~machine)
  in
  match t with
  | Baseline ->
    { tool = Tool.baseline heap;
      finish = (fun () -> ());
      detected = (fun () -> false);
      csod = None;
      asan = None;
      respond = None;
      startup_cycles = 0 }
  | Csod params ->
    let rt = Runtime.create ~params ?store ?respond:rsp ~seed ~machine ~heap () in
    { tool = Runtime.tool rt;
      finish = (fun () -> Runtime.finish rt);
      detected = (fun () -> Runtime.detected rt);
      csod = Some rt;
      asan = None;
      respond = rsp;
      startup_cycles = Cost.csod_init }
  | Asan { redzone } ->
    let a = Asan.create ~redzone ~instrumented ?respond:rsp ~machine ~heap () in
    { tool = Asan.tool a;
      finish = (fun () -> ());
      detected = (fun () -> Asan.detected a);
      csod = None;
      asan = Some a;
      respond = rsp;
      startup_cycles = Cost.asan_init }
