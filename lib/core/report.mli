(** Overflow reports (paper, Section III-D2 and Figure 6).

    A report carries both halves the paper prints for Heartbleed: the full
    calling context of the {e overflowing access} and the full calling
    context of the {e allocation} of the overflowed object.  Formatting
    symbolizes each code address through a caller-supplied resolver (the
    [addr2line] analogue). *)

type kind = Over_read | Over_write

type source =
  | Watchpoint   (** a hardware watchpoint fired *)
  | Canary_free  (** evidence: corrupted canary found at deallocation *)
  | Canary_exit  (** evidence: corrupted canary found at program exit *)

type t = {
  kind : kind;
  source : source;
  access_backtrace : int list;
      (** innermost first; empty for canary evidence, which only proves the
          write happened, not where *)
  alloc_backtrace : int list;
      (** innermost first: the chain saved when the object's (call site,
          stack offset) pair was first seen, which the context entry holds
          (paper §III-A1, Fig. 5).  A pair reached through several chains
          reports its first one, not necessarily the chain that allocated
          this object (DESIGN.md §7). *)
  ctx_key : Alloc_ctx.key;     (** allocation context of the victim object *)
  object_addr : int;
  watch_addr : int;
  tid : Threads.tid;
  at_sec : float;              (** virtual time of detection *)
}

val kind_name : kind -> string
(** ["over-read"] or ["over-write"]. *)

val source_name : source -> string

val format : symbolize:(int -> string) -> t -> string
(** Figure 6 style rendering:
    {v
    A buffer over-read problem is detected at:
      <access frames>
    This object is allocated at:
      <allocation frames>
    v} *)

val one_line : symbolize:(int -> string) -> t -> string
(** Compact single-line summary (kind, source, object, allocation site)
    for post-mortem listings. *)

val pp : symbolize:(int -> string) -> Format.formatter -> t -> unit
