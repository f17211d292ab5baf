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

(** {2 Field tables}

    A record's format written once, as its fields in emission order: the
    encoder ({!to_json}), the decoder ({!of_json}) and the spec
    ({!of_table}) all come from the one table. *)

type 'r field
(** One member of an ['r]'s object: name, kind, how it is written and read. *)

module Field : sig
  type ('r, 'a) lens := ('r -> 'a) -> ('r -> 'a -> 'r) -> 'r field

  val conv :
    string -> kind -> ('a -> Obs_json.t) -> (Obs_json.t -> 'a option) -> ('r, 'a) lens
  (** A member written from a field of the record (the lens's getter) through
      the codec's encoder; read by its decoder ([None]: malformed) and stored
      by the setter into the record read so far. *)

  val int : ?optional:bool -> ?min:int -> string -> ('r, int) lens
  (** An int token of at least [min] (default 0: a count or an index).  An
      [optional] one may be absent: the zero record's value stands. *)

  val float : string -> ('r, float) lens
  val string : string -> ('r, string) lens
  val counts : string -> ('r, (string * int) list) lens  (** {!Obs_json.counts} *)

  val nullable :
    string -> kind ->
    ('a -> Obs_json.t) -> (Obs_json.t -> 'a option) -> ('r, 'a option) lens
  (** Kind [Nullable kind]; [None] is [null]. *)

  val list :
    string -> ('a -> Obs_json.t) -> (Obs_json.t -> 'a option) -> ('r, 'a list) lens
  val record : string -> 'a field list -> 'a -> ('r, 'a) lens
  val records : string -> 'a field list -> 'a -> ('r, 'a list) lens
  (** One nested object, or a list of them, through its table and zero.  A
      nested object the table refuses is named with its member, e.g.
      [field "alerts": field "firing": missing field "since"]. *)

  val option : string -> 'a field list -> 'a -> ('r, 'a option) lens
  (** An optional nested object, written only when [Some]. *)
end

val to_json : ?tag:string -> 'r field list -> 'r -> Obs_json.t
(** The object, members in table order, led by ["schema"] with [tag].
    Nothing is checked: this is the write path. *)

val of_json : 'r field list -> 'r -> Obs_json.t -> ('r, string) result
(** Every member read into the zero record in table order; [Error] names
    the first one missing, of the wrong kind or malformed, and for a
    nested record also the inner member at fault. *)

val of_table :
  ?check:(unit -> 'r -> (unit, string) result) -> string -> 'r field list -> 'r -> 'r t
(** The format [name] of the table's records: its required kinds, then
    {!of_json} from the zero record, then [check] (fresh per stream) for
    what no single member says. *)

val decode : 'a t -> Obs_json.t -> ('a, string) result
(** The tag and the required fields checked, then the format's decoder:
    one record, as the first of a stream. *)

val conforms : 'a t -> Obs_json.t -> (unit, string) result
(** {!decode} with the value dropped. *)

val record : 'a t -> string -> (Obs_json.t, string) result
(** The record a line holds: its JSON (for a canonical format, rendered
    exactly as the line) with the spec's tag and fields; not yet decoded. *)

val read : 'a t -> string -> ('a, string) result list
(** A text as one stream of the format: one result per line, in order,
    lines split by {!Lines.fold}. *)

val validate : unit t list -> ?schema:string -> string -> (int, string) result
(** Check a JSONL text: one JSON object per line under {!Lines.fold}'s
    rule.  With [schema] (which must name a spec) every line conforms to
    it and the stream is not empty; without, a line whose tag names a spec
    conforms to it and a line with any other [csod.*] tag is an error.
    [Ok] is the line count; an [Error] names the offending line. *)
