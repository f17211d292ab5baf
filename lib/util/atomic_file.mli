(** Publish a file whole or not at all. *)

val write : string -> string -> unit
(** [write path content] writes [content] to [path ^ ".tmp"] and renames
    it over [path], so a reader sees the old file or the new one, never a
    torn one.  A failed open, write, close or rename leaves neither an
    open channel nor [path ^ ".tmp"] behind, and re-raises its error. *)
