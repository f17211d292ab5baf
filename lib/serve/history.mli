(** Durable, checksummed health history (schema [csod.serve.history/2]).

    The service appends one JSONL line per event to rotating segment
    files ([serve-000000.jsonl], [serve-000001.jsonl], ...) in a history
    directory.  Every line carries a monotonic [seq], a [kind]
    ([meta] — run configuration, written first, once per run;
    [health] — one epoch record ({!Health.t}, without [wall]) per epoch
    barrier; [alert] — one {!Alert.event} per transition) and an FNV-1a 64
    checksum (the same hash {!Persist} seals snapshots with) over its
    [seq], its [kind] and its rendered [body].  A line is exactly
    [Obs_json.to_string] of its record, so a truncated or bit-flipped line
    is detected rather than silently trusted: a flip in a [seq] is a
    checksum error, which loses that one record, not a record out of
    sequence.

    Bodies are deterministic (the records carry no wall clock), so for a
    given seed and schedule the segment bytes are identical at any
    [--domains] count — pinned by [test_serve].  [csod_run replay]
    re-renders the dashboard and re-evaluates alert rules from these
    files alone.  A [csod.serve.history/1] line is refused by its tag. *)

type kind = Meta | Health | Alert

val spec : unit Schema.t
(** The format, checked by the decoder {!read} runs: per stream, each
    line's checksum holds, [seq] runs on by one from the first record,
    health bodies decode and alert bodies pass {!Alert.spec}'s stream
    check (resumed when the stream starts past seq 0). *)

(** {2 Writing} *)

type writer

val writer :
  ?rotate:int -> ?seq:int -> ?segment:int -> ?lines:int -> string -> writer
(** A writer appending into the given directory (created if missing).
    [rotate] (default 4096) bounds lines per segment.  [seq], [segment]
    and [lines] (defaults 0) restart a checkpointed writer exactly where
    it stopped — same segment file, same next sequence number. *)

val append : writer -> kind -> Obs_json.t -> int
(** Append one record; returns the sequence number it got.  Lines are
    flushed as written, so a crashed service loses at most the line
    being written (and the checksum catches that torn line on read). *)

val seq : writer -> int
val segment : writer -> int
val lines_in_segment : writer -> int
(** Writer position, for checkpoints. *)

val close : writer -> unit

val truncate : string -> segment:int -> lines:int -> unit
(** Roll the directory back to a checkpointed writer position: segments
    past [segment] are deleted and the [segment] file is cut to its
    first [lines] lines, rewritten with {!Atomic_file.write} so a failed
    rewrite leaves the segment as it was.  Resume uses this so records
    appended after the last checkpoint (by a crashed session) cannot
    duplicate the ones the resumed session re-emits. *)

(** {2 Reading} *)

val segments : string -> string list
(** The directory's segment files, segment order (full paths). *)

type log = {
  meta : Obs_json.t option;  (** the first meta record *)
  health : Health.t list;  (** health bodies, file order *)
  alerts : Obs_json.t list;  (** alert bodies as written *)
  errors : string list;
      (** a line with no record (torn, empty, not JSON, wrong tag or
          fields) as ["serve-000000.jsonl:LINE: reason"]; a record that
          breaks the log's rules (checksum, sequence, body) as
          ["seq N..."] *)
}

val read : string -> log
(** Every segment through {!spec}'s decoder, as one stream from seq 0 (a
    lost line may leave a gap of one).  Nothing in [errors] is in the log
    and nothing is made up, but any error means the history is not whole:
    [csod_run replay] fails on it and a resume refuses it. *)
