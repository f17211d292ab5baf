(** The registry of every [csod.*] line format.  It owns the bench row
    formats [bench/main.exe] prints; each other spec lives next to its
    emitter. *)

val bench_fleet : Schema.t
val bench_exec : Schema.t
val bench_respond : Schema.t
val bench_resilience : Schema.t
val bench_metrics : Schema.t
val bench_throughput : Schema.t

val emit_row : Schema.t -> (string * Obs_json.t) list -> unit
(** Print one row on stdout, tag first.  Raises [Invalid_argument] when
    the row does not conform to the spec. *)

val all : Schema.t list
(** The fourteen formats. *)
