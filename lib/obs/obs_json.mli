(** Minimal JSON document type, printer and parser for the telemetry
    exporters.

    Yojson-compatible constructors, but zero dependencies: the metrics
    registry, the flight recorder's JSONL stream and the bench harness all need to emit
    machine-readable output without pulling a JSON library into the build.
    The parser exists for the consumers of those streams ([csod_run top]
    reads the fleet health JSONL back). *)

type t =
  [ `Null
  | `Bool of bool
  | `Int of int
  | `Float of float
  | `String of string
  | `List of t list
  | `Assoc of (string * t) list ]

val to_string : t -> string
(** Compact (single-line) rendering.  Non-finite floats print as [null] so
    the output is always valid JSON. *)

val write : Buffer.t -> t -> unit
(** Append {!to_string}'s rendering to the buffer. *)

val of_string : string -> (t, string) result
(** Parse one JSON document.  Numbers without a fraction or exponent come
    back as [`Int], everything else as [`Float], so a value printed by
    {!to_string} round-trips to an equal document.  The error string
    carries the byte offset of the first problem. *)

val member : string -> t -> t option
(** [member key json] is the field [key] of an [`Assoc], if both exist. *)

val to_int : t -> int option
(** [`Int n] as [n]; [`Float f] as [int_of_float f] when integral and in
    [\[-2{^62}, 2{^62})]; [None] otherwise. *)

val to_float : t -> float option
(** [`Float f] as [f]; [`Int n] as [float_of_int n]. *)

val all : ('a -> 'b option) -> 'a list -> 'b list option
(** Every element decoded, or [None] if one fails. *)

val counts : t -> (string * int) list option
(** An object of [`Int] counts (a fault tally), or [None]. *)
