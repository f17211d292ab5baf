type t =
  | INT of int
  | STRING of string
  | IDENT of string
  | KW_FN | KW_VAR | KW_IF | KW_ELSE | KW_WHILE | KW_FOR | KW_RETURN
  | KW_BREAK | KW_CONTINUE
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | COMMA | SEMI
  | ASSIGN
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | LT | LE | GT | GE | EQ | NE
  | AND | OR | NOT
  | AMP | PIPE | CARET | SHL | SHR
  | EOF

let to_string = function
  | INT n -> string_of_int n
  | STRING s -> Printf.sprintf "%S" s
  | IDENT s -> s
  | KW_FN -> "fn" | KW_VAR -> "var" | KW_IF -> "if" | KW_ELSE -> "else"
  | KW_WHILE -> "while" | KW_FOR -> "for" | KW_RETURN -> "return"
  | KW_BREAK -> "break" | KW_CONTINUE -> "continue"
  | LPAREN -> "(" | RPAREN -> ")" | LBRACE -> "{" | RBRACE -> "}"
  | LBRACKET -> "[" | RBRACKET -> "]"
  | COMMA -> "," | SEMI -> ";"
  | ASSIGN -> "="
  | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/" | PERCENT -> "%"
  | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">=" | EQ -> "==" | NE -> "!="
  | AND -> "&&" | OR -> "||" | NOT -> "!"
  | AMP -> "&" | PIPE -> "|" | CARET -> "^" | SHL -> "<<" | SHR -> ">>"
  | EOF -> "<eof>"

type spanned = { tok : t; loc : Srcloc.t }
