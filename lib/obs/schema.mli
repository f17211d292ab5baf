(** Line formats: one spec per [csod.*] schema tag, exported next to its
    emitter — the tag, the required fields with their JSON kinds, and a
    semantic check (where a decoder exists, that decoder). *)

type kind =
  | Int  (** an integer token: not [true], not [1.0] *)
  | Float  (** any number, but not a bool *)
  | String
  | Bool
  | List
  | Object
  | Nullable of kind  (** [null] or the kind *)

type t

val make :
  ?check:(Obs_json.t -> (unit, string) result) ->
  ?stream:(unit -> Obs_json.t -> (unit, string) result) ->
  string ->
  (string * kind) list ->
  t
(** The check runs once the fields have their kinds: [check] judges one
    record; [stream] builds a fresh, stateful check per stream.  Extra
    fields are allowed. *)

val name : t -> string

val has_fields : (string * kind) list -> Obs_json.t -> (unit, string) result
(** Every field present with its kind. *)

val int : Obs_json.t -> string -> int
val float : Obs_json.t -> string -> float
(** A field {!has_fields} has checked (a [Float] may be an int token);
    [Invalid_argument] for any other. *)

val shape : t -> Obs_json.t -> (unit, string) result
(** An object carrying the spec's tag and fields; no semantic check. *)

val conforms : t -> Obs_json.t -> (unit, string) result
(** {!shape} plus the check, as the first record of a stream. *)

val validate : t list -> ?schema:string -> string -> (int, string) result
(** Check a JSONL text: one JSON object per newline-terminated, non-empty
    line.  With [schema] (which must name a spec) every line conforms to
    it and the stream is not empty; without, a line whose tag names a spec
    conforms to it and a line with any other [csod.*] tag is an error.
    [Ok] is the line count; an [Error] names the offending line. *)
