(** Durable, checksummed health history (schema [csod.serve.history/1]).

    The service appends one JSONL line per event to rotating segment
    files ([serve-000000.jsonl], [serve-000001.jsonl], ...) in a history
    directory.  Every line carries a monotonic [seq], a [kind]
    ([meta] — run configuration, written first, once per run;
    [health] — one {!Serve_obs.t} per epoch barrier; [alert] — one
    {!Alert.event} per transition) and an FNV-1a 64 checksum of its
    rendered [body] (the same hash {!Persist} seals snapshots with), so
    truncated or bit-flipped lines are detected rather than silently
    trusted.

    Bodies are deterministic projections ({!Serve_obs}), so for a given
    seed and schedule the segment bytes are identical at any [--domains]
    count — pinned by [test_serve].  [csod_run replay] re-renders the
    dashboard and re-evaluates alert rules from these files alone. *)

type kind = Meta | Health | Alert

type record = { seq : int; kind : kind; body : Obs_json.t }

val spec : Schema.t
(** Per stream: contiguous [seq], health bodies decode and alert bodies
    pass {!Alert.spec}'s stream check. *)

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

val read : string -> record list * string list
(** Read every segment: the valid records in file order plus one message
    per rejected line (corruption, bad schema, checksum mismatch).
    Corrupt lines are skipped, not fatal — history survives a torn
    tail. *)
