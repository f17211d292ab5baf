(** The detection CDF of a fleet run, rendered from its health stream.

    An epoch is the fleet's unit of evidence exchange — the paper's
    "written to persistent storage ... to detect buffer overflow in
    future executions" (Section IV-B), generalized from one user's next
    run to a whole population's periodic report upload.  Executions
    inside an epoch start from the same store snapshot; the barrier at
    the end merges what they found.  The run's {!Health.sample}s, one per
    barrier, already record how far detection has progressed — the
    fleet's detection CDF (what fraction of the population has caught the
    bug by epoch [e]); this module only renders them. *)

val table : Health.sample list -> string
(** Rendered {!Table_fmt} detection-CDF table: epoch, arrivals,
    detections, cumulative detections, CDF and store size per sample. *)

val to_json : Health.sample -> Obs_json.t
(** One row of a fleet report's ["epochs"] member: [epoch], [arrivals],
    [detections], [cumulative] and [store_size]. *)
