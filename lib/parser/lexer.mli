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

exception Lex_error of string * int * int

type t
(** A lexer over one input, positioned on its current token.  It moves in
    place, so scanning allocates only the payloads of identifier, string
    and integer tokens. *)

val make : string -> t
(** The lexer on the first token of the input.
    @raise Lex_error as {!advance}. *)

val token : t -> token

val line : t -> int
val col : t -> int
(** The 1-based position where the current token starts. *)

val advance : t -> unit
(** Move to the next token, scanning only as far as it.  After the last
    token the lexer is on [EOF] at the end position, then on [EOF] at line
    0 forever.  Comments run from [%] or [#] to end of line.
    @raise Lex_error on an unexpected character, an unterminated string or
    an integer literal past [max_int], and again on every later call. *)

val pp_token : token Fmt.t
