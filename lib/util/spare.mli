(** A domain-local spare: at most one recycled value per domain.

    Executions are short-lived but plentiful, and each builds the same
    fixed-size tables (the heap's object table, the context table's
    buckets, the VM's stack).  A table of more than 256 words is allocated
    directly in the major heap, so building it fresh for every execution
    keeps the major collector busy.  An owner that is done with such a
    table hands it to its spare, already emptied; the next owner on the
    same domain takes it instead of allocating.  The spare is per domain,
    so fleet workers never contend, and a second owner alive at the same
    time simply builds its own. *)

type 'a t

val create : unit -> 'a t
(** An empty spare on every domain. *)

val take : 'a t -> fresh:(unit -> 'a) -> 'a
(** The value this domain's spare holds, which leaves the spare empty, or
    [fresh ()] when it holds none. *)

val give : 'a t -> 'a -> unit
(** Hand a value to this domain's spare.  The caller must have emptied it
    and must not use it again.  Dropped when the spare already holds one. *)
