(** Linked MiniC programs and their symbol tables.

    A program is built from one or more compilation units — typically an
    application unit plus "library" units carrying a different module tag
    (the paper's instrumented-versus-uninstrumented boundary).  Loading
    parses every unit with a single shared code-address counter, links the
    function namespace, runs the static checks, and builds the symbol table
    the reproduction's [addr2line] equivalent reads. *)

type t

type unit_src = {
  file : string;         (** source file name for diagnostics and reports *)
  module_name : string;  (** library tag, e.g. ["openssl"] or ["nginx"] *)
  source : string;
}

type error = { msg : string; loc : Srcloc.t }

val pp_error : Format.formatter -> error -> unit

val load : unit_src list -> (t, error list) result
(** Parse, link, and check.  Lexer/parser faults are reported as a
    single-element error list; semantic faults are accumulated. *)

val load_exn : unit_src list -> t
(** Like {!load} but raises [Failure] with the rendered errors. *)

val func : t -> string -> Ast.func option
val functions : t -> Ast.func list
(** In declaration order. *)

val frame_size : t -> string -> int
(** Bytes of simulated stack consumed by one activation of the function:
    a fixed 32-byte frame header plus 8 bytes per parameter and per [var]
    declaration.  Defines the stack offsets in context keys. *)

(** {1 Symbolization} *)

type frame_info = { floc : Srcloc.t; in_func : string; in_module : string }

val symbolize : t -> int -> string
(** ["file:line (function)"], or ["0x<addr>"] when unknown — the paper's
    fallback when symbols are stripped. *)

val module_of_addr : t -> int -> string option

val total_source_lines : t -> int
(** Lines of MiniC across all units (the model's "LOC" for Table IV). *)

(** {1 Compiled-code cache}

    An execution engine may attach its compiled form of the program here so
    repeated executions (the fleet's bread and butter) skip recompilation.
    The slot is an extension point rather than a concrete type to keep
    [Program] free of a dependency on any particular engine. *)

type cached = ..

val compiled : t -> cached option

val set_compiled : t -> cached -> unit
(** Publish a compiled form.  Compilation is deterministic, so a benign
    race between domains at worst repeats the work; callers that fan out
    across domains should compile eagerly first (see
    [Execution.executor]). *)
