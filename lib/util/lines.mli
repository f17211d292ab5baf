(** The line rule of every durable text format (the JSONL schemas, the
    serve history, sim repros, the evidence store): a line ends with
    ['\n'] and is not empty, and a final fragment without its ['\n'] is
    torn — reported, never a record.  A torn line can still parse (a tear
    can cut ["12345 67\n"] to ["12345 6"]), so the missing terminator is
    the only reliable tear signal; [input_line] hides it. *)

val fold : ('a -> int -> (string, string) result -> 'a) -> 'a -> string -> 'a
(** [fold f acc text] folds [f] over the lines of [text] in order,
    numbered from 1: [Ok l] is a line without its ['\n'], [Error] names an
    empty line or the torn final fragment.  An empty text has no lines. *)
