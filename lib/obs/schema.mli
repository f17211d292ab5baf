(** Line formats: one spec per [csod.*] schema tag, exported next to its
    emitter — the tag, the required fields with their JSON kinds, and the
    format's decoder.  A reader calls the decoder ({!decode}, {!read});
    {!validate} runs the same decoder with its value dropped, so it
    accepts exactly what the readers accept. *)

type kind =
  | Int  (** an integer token: not [true], not [1.0] *)
  | Float  (** any number, but not a bool *)
  | String
  | Bool
  | List
  | Object
  | Nullable of kind  (** [null] or the kind *)

type 'a t
(** A format whose records decode to ['a]. *)

val of_decoder :
  string -> (string * kind) list -> (Obs_json.t -> ('a, string) result) -> 'a t
(** A format and its decoder, which runs on a record once its fields have
    their kinds (extra fields are allowed). *)

val make :
  ?canonical:bool ->
  ?stream:(unit -> Obs_json.t -> (unit, string) result) ->
  string ->
  (string * kind) list ->
  unit t
(** A format whose check ([stream], a fresh one per stream; none by
    default) keeps state across records.  A [canonical] format (default
    [false]) is written as [Obs_json.to_string] of each record, and a
    line that is not exactly that rendering is refused: a checksum over a
    record's value then covers every byte of its line. *)

val erase : 'a t -> unit t
(** The format, its value dropped: what {!validate} holds. *)

val name : 'a t -> string

val has_fields : (string * kind) list -> Obs_json.t -> (unit, string) result
(** Every field present with its kind. *)

val int : Obs_json.t -> string -> int
val float : Obs_json.t -> string -> float
(** A field {!has_fields} has checked (a [Float] may be an int token);
    [Invalid_argument] for any other. *)

val shape : 'a t -> Obs_json.t -> (unit, string) result
(** An object carrying the spec's tag and fields; no decoding. *)

val decode : 'a t -> Obs_json.t -> ('a, string) result
(** {!shape}, then the format's decoder: one record, as the first of a
    stream. *)

val conforms : 'a t -> Obs_json.t -> (unit, string) result
(** {!decode} with the value dropped. *)

val record : 'a t -> string -> (Obs_json.t, string) result
(** The record a line holds: its JSON (for a canonical format, rendered
    exactly as the line) with the format's {!shape}; not yet decoded. *)

val read : 'a t -> string -> ('a, string) result list
(** A text as one stream of the format: one result per line, in order,
    lines split by {!Lines.fold}. *)

val validate : unit t list -> ?schema:string -> string -> (int, string) result
(** Check a JSONL text: one JSON object per line under {!Lines.fold}'s
    rule.  With [schema] (which must name a spec) every line conforms to
    it and the stream is not empty; without, a line whose tag names a spec
    conforms to it and a line with any other [csod.*] tag is an error.
    [Ok] is the line count; an [Error] names the offending line. *)
