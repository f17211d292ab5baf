(** Pretty-printer for MiniC.

    Renders an AST back to concrete syntax that the parser accepts and
    that parses to a structurally identical tree (code addresses and
    source locations aside) — the round-trip law the test suite checks by
    property.  Used by tooling that wants to display or re-emit checked
    programs (e.g. the CLI's [--dump] flag). *)

val program_to_string : Ast.func list -> string
(** Whole compilation unit, functions separated by blank lines. *)

val expr_to_string : Ast.expr -> string
(** Minimal parentheses: emitted only where precedence or associativity
    requires them. *)
