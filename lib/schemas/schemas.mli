(** The registry of every [csod.*] line format.  It owns the bench row
    formats [bench/main.exe] prints; each other spec lives next to its
    emitter. *)

val bench_fleet : unit Schema.t
val bench_exec : unit Schema.t
val bench_respond : unit Schema.t
val bench_resilience : unit Schema.t
val bench_metrics : unit Schema.t
val bench_throughput : unit Schema.t

val emit_row : 'a Schema.t -> (string * Obs_json.t) list -> unit
(** Print one row on stdout, tag first.  Raises [Invalid_argument] when
    the row does not conform to the spec. *)

val all : unit Schema.t list
(** The thirteen formats. *)
