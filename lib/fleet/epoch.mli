(** Per-epoch accounting of a fleet run: the detection CDF.

    An epoch is the fleet's unit of evidence exchange — the paper's
    "written to persistent storage ... to detect buffer overflow in
    future executions" (Section IV-B), generalized from one user's next
    run to a whole population's periodic report upload.  Executions
    inside an epoch start from the same store snapshot; the barrier at
    the end merges what they found.  One {!row} per epoch records how far
    detection has progressed — the rows form the fleet's detection CDF
    (what fraction of the population has caught the bug by epoch [e]). *)

type row = {
  epoch : int;           (** 0-based *)
  arrivals : int;        (** users executed in this epoch *)
  detections : int;      (** executions in this epoch that detected *)
  cumulative : int;      (** detections up to and including this epoch *)
  store_size : int;      (** shared-store contexts after this barrier *)
}

val of_sample : Health.sample -> row
(** The row of the health sample built at the same barrier. *)

val cdf : total_users:int -> row -> float
(** [cumulative / total_users]. *)

val table : total_users:int -> row list -> string
(** Rendered {!Table_fmt} detection-CDF table. *)

val to_json : row -> Obs_json.t
