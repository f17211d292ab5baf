(** The detection CDF of a fleet run, rendered from its epoch records.

    An epoch is the fleet's unit of evidence exchange — the paper's
    "written to persistent storage ... to detect buffer overflow in
    future executions" (Section IV-B), generalized from one user's next
    run to a whole population's periodic report upload.  Executions
    inside an epoch start from the same store snapshot; the barrier at
    the end merges what they found.  The run's {!Health.t} records, one
    per barrier, folded through {!Health.totals}, say how far detection
    has progressed — the fleet's detection CDF (what fraction of the
    population has caught the bug by epoch [e]); this module only renders
    them. *)

val table : users:int -> Health.t list -> string
(** Rendered {!Table_fmt} detection-CDF table: epoch, arrivals,
    detections, cumulative detections, CDF (cumulative over the [users]
    of the population; 0 for an empty one) and store size per record. *)

val to_json : Health.t list -> Obs_json.t list
(** A fleet report's ["epochs"] rows, one per record: [epoch],
    [arrivals], [detections], [cumulative] and [store_size]. *)
