(** Lexical tokens of MiniC. *)

type t =
  | INT of int
  | STRING of string
  | IDENT of string
  | KW_FN | KW_VAR | KW_IF | KW_ELSE | KW_WHILE | KW_FOR | KW_RETURN
  | KW_BREAK | KW_CONTINUE
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | COMMA | SEMI
  | ASSIGN                                     (** [=] *)
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | LT | LE | GT | GE | EQ | NE                (** [== !=] *)
  | AND | OR | NOT                             (** [&& || !] *)
  | AMP | PIPE | CARET | SHL | SHR             (** bitwise *)
  | EOF

val to_string : t -> string

type spanned = { tok : t; loc : Srcloc.t }
(** A token paired with the location of its first character. *)
