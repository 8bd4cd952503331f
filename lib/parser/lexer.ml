type token =
  | IDENT of string
  | UIDENT of string
  | STRING of string
  | INT of int
  | LPAREN | RPAREN
  | LBRACKET | RBRACKET
  | COMMA | DOT | COLON | SEMI
  | ARROW
  | PIPE
  | AMP
  | BANG
  | EQ | NEQ | LT | LEQ | GT | GEQ
  | PLUS | MINUS
  | EOF

exception Lex_error of string * int * int

let pp_token ppf t =
  Fmt.string ppf
    (match t with
    | IDENT s -> s
    | UIDENT s -> s
    | STRING s -> Printf.sprintf "%S" s
    | INT i -> string_of_int i
    | LPAREN -> "(" | RPAREN -> ")"
    | LBRACKET -> "[" | RBRACKET -> "]"
    | COMMA -> "," | DOT -> "." | COLON -> ":" | SEMI -> ";"
    | ARROW -> "->" | PIPE -> "|" | AMP -> "&" | BANG -> "!"
    | EQ -> "=" | NEQ -> "!=" | LT -> "<" | LEQ -> "<=" | GT -> ">" | GEQ -> ">="
    | PLUS -> "+" | MINUS -> "-"
    | EOF -> "<eof>")

(* The scan position is [pos], on line [line], whose first character is at
   [bol]; the current token and where it starts are beside it.  One
   record per input, not one per token: a large file is never held as
   tokens, and its tokens cost no position records either. *)
type t = {
  input : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;
  mutable tok : token;
  mutable tline : int;
  mutable tcol : int;
  mutable finished : bool;
}

let token lx = lx.tok
let line lx = lx.tline
let col lx = lx.tcol

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

let error lx msg = raise (Lex_error (msg, lx.line, lx.pos - lx.bol + 1))

(* Blanks and comments; a comment stops before its newline. *)
let rec skip lx =
  if lx.pos < String.length lx.input then
    match lx.input.[lx.pos] with
    | ' ' | '\t' | '\r' ->
        lx.pos <- lx.pos + 1;
        skip lx
    | '\n' ->
        lx.pos <- lx.pos + 1;
        lx.line <- lx.line + 1;
        lx.bol <- lx.pos;
        skip lx
    | '%' | '#' ->
        while lx.pos < String.length lx.input && lx.input.[lx.pos] <> '\n' do
          lx.pos <- lx.pos + 1
        done;
        skip lx
    | _ -> ()

(* The current token is [tok], starting at [pos] and [len] characters
   long, none of them a newline. *)
let set lx tok len =
  lx.tok <- tok;
  lx.tline <- lx.line;
  lx.tcol <- lx.pos - lx.bol + 1;
  lx.pos <- lx.pos + len

let next_is lx c = lx.pos + 1 < String.length lx.input && lx.input.[lx.pos + 1] = c

(* Decimal digits from [pos], as an int; past [max_int] the whole digit
   run is the error. *)
let lex_int lx =
  let input = lx.input and n = String.length lx.input in
  let j = ref lx.pos and v = ref 0 and overflow = ref false in
  while !j < n && is_digit input.[!j] do
    let d = Char.code input.[!j] - Char.code '0' in
    if !v > (max_int - d) / 10 then overflow := true else v := (!v * 10) + d;
    incr j
  done;
  if !overflow then
    error lx
      (Printf.sprintf "integer literal %s out of range" (String.sub input lx.pos (!j - lx.pos)))
  else set lx (INT !v) (!j - lx.pos)

let lex_string lx =
  let input = lx.input and start = lx.pos + 1 in
  match String.index_from_opt input start '"' with
  | None -> error lx "unterminated string literal"
  | Some j ->
      set lx (STRING (String.sub input start (j - start))) 0;
      for k = start to j - 1 do
        if input.[k] = '\n' then begin
          lx.line <- lx.line + 1;
          lx.bol <- k + 1
        end
      done;
      lx.pos <- j + 1

let lex_word lx =
  let input = lx.input and n = String.length lx.input in
  let j = ref lx.pos in
  while !j < n && is_ident_char input.[!j] do
    incr j
  done;
  let word = String.sub input lx.pos (!j - lx.pos) in
  set lx (match word.[0] with 'A' .. 'Z' -> UIDENT word | _ -> IDENT word) (!j - lx.pos)

let advance lx =
  skip lx;
  if lx.pos >= String.length lx.input then begin
    if lx.finished then begin
      lx.tok <- EOF;
      lx.tline <- 0;
      lx.tcol <- 0
    end
    else begin
      lx.finished <- true;
      set lx EOF 0
    end
  end
  else
    match lx.input.[lx.pos] with
    | '(' -> set lx LPAREN 1
    | ')' -> set lx RPAREN 1
    | '[' -> set lx LBRACKET 1
    | ']' -> set lx RBRACKET 1
    | ',' -> set lx COMMA 1
    | '.' -> set lx DOT 1
    | ':' -> set lx COLON 1
    | ';' -> set lx SEMI 1
    | '|' -> set lx PIPE 1
    | '&' -> set lx AMP 1
    | '+' -> set lx PLUS 1
    | '=' -> set lx EQ 1
    | '~' -> set lx BANG 1
    | '!' -> if next_is lx '=' then set lx NEQ 2 else set lx BANG 1
    | '<' ->
        if next_is lx '=' then set lx LEQ 2
        else if next_is lx '>' then set lx NEQ 2
        else set lx LT 1
    | '>' -> if next_is lx '=' then set lx GEQ 2 else set lx GT 1
    | '-' -> if next_is lx '>' then set lx ARROW 2 else set lx MINUS 1
    | '"' -> lex_string lx
    | '0' .. '9' -> lex_int lx
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> lex_word lx
    | c -> error lx (Printf.sprintf "unexpected character %C" c)

let make input =
  let lx =
    { input; pos = 0; line = 1; bol = 0; tok = EOF; tline = 0; tcol = 0; finished = false }
  in
  advance lx;
  lx
