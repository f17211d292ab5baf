(** Small numeric helpers shared by the experiment harness. *)

val mean : float list -> float
(** Arithmetic mean; 0 for the empty list. *)

val geomean : float list -> float
(** Geometric mean; 0 for the empty list.  Figure 7 style normalized-overhead
    averages are conventionally geometric, and the harness reports both. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,100\]]; nearest-rank on the sorted
    list.  Raises [Invalid_argument] on an empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 for lists shorter than 2. *)

val clamp : lo:float -> hi:float -> float -> float
(** Clamp into [\[lo, hi\]]. *)

val ratio : int -> int -> float
(** [ratio num den] as a float; 0 when [den = 0]. *)
