(** Tokenizer for the surface language (see {!Parser} for the grammar). *)

type token =
  | IDENT of string    (** lowercase identifier: constant or keyword *)
  | UIDENT of string   (** capitalized identifier: variable or relation *)
  | STRING of string   (** double-quoted constant *)
  | INT of int
  | LPAREN | RPAREN
  | LBRACKET | RBRACKET
  | COMMA | DOT | COLON | SEMI
  | ARROW          (** -> *)
  | PIPE           (** | *)
  | AMP            (** & *)
  | BANG           (** ! *)
  | EQ | NEQ | LT | LEQ | GT | GEQ
  | PLUS | MINUS
  | EOF

type located = { token : token; line : int; col : int }

exception Lex_error of string * int * int

val lexer : string -> unit -> located
(** [lexer input] returns a function yielding the tokens of [input] one per
    call, scanning only as far as the token it returns; after the last one
    it yields [EOF] at the end position, then [EOF] at line 0 forever.
    Comments run from [%] or [#] to end of line.
    @raise Lex_error on an unexpected character or unterminated string. *)

val pp_token : token Fmt.t
