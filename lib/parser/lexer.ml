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

type located = { token : token; line : int; col : int }

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

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* A generator rather than a token list: the parser pulls one token at a
   time, so a large file is never held as tokens (a list of them was the
   peak of a load). *)
let lexer input =
  let n = String.length input in
  let line = ref 1 and col = ref 1 in
  let i = ref 0 in
  let finished = ref false in
  let advance k =
    for j = !i to min (n - 1) (!i + k - 1) do
      if input.[j] = '\n' then begin
        incr line;
        col := 1
      end
      else incr col
    done;
    i := !i + k
  in
  let error msg = raise (Lex_error (msg, !line, !col)) in
  let emit k token =
    let t = { token; line = !line; col = !col } in
    advance k;
    t
  in
  let rec next () =
    if !i >= n then
      if !finished then { token = EOF; line = 0; col = 0 }
      else begin
        finished := true;
        { token = EOF; line = !line; col = !col }
      end
    else
      match input.[!i] with
      | ' ' | '\t' | '\r' | '\n' ->
          advance 1;
          next ()
      | '%' | '#' ->
          while !i < n && input.[!i] <> '\n' do
            advance 1
          done;
          next ()
      | '(' -> emit 1 LPAREN
      | ')' -> emit 1 RPAREN
      | '[' -> emit 1 LBRACKET
      | ']' -> emit 1 RBRACKET
      | ',' -> emit 1 COMMA
      | '.' -> emit 1 DOT
      | ':' -> emit 1 COLON
      | ';' -> emit 1 SEMI
      | '|' -> emit 1 PIPE
      | '&' -> emit 1 AMP
      | '+' -> emit 1 PLUS
      | '=' -> emit 1 EQ
      | '~' -> emit 1 BANG
      | '!' ->
          if !i + 1 < n && input.[!i + 1] = '=' then emit 2 NEQ else emit 1 BANG
      | '<' ->
          if !i + 1 < n && input.[!i + 1] = '=' then emit 2 LEQ
          else if !i + 1 < n && input.[!i + 1] = '>' then emit 2 NEQ
          else emit 1 LT
      | '>' ->
          if !i + 1 < n && input.[!i + 1] = '=' then emit 2 GEQ else emit 1 GT
      | '-' ->
          if !i + 1 < n && input.[!i + 1] = '>' then emit 2 ARROW else emit 1 MINUS
      | '"' ->
          let start = !i + 1 in
          let j = ref start in
          while !j < n && input.[!j] <> '"' do
            incr j
          done;
          if !j >= n then error "unterminated string literal"
          else emit (!j - !i + 1) (STRING (String.sub input start (!j - start)))
      | '0' .. '9' ->
          let start = !i in
          let j = ref !i in
          while !j < n && match input.[!j] with '0' .. '9' -> true | _ -> false do
            incr j
          done;
          let digits = String.sub input start (!j - start) in
          (match int_of_string_opt digits with
          | Some v -> emit (!j - start) (INT v)
          | None -> error (Printf.sprintf "integer literal %s out of range" digits))
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
          let start = !i in
          let j = ref !i in
          while !j < n && is_ident_char input.[!j] do
            incr j
          done;
          let word = String.sub input start (!j - start) in
          emit (!j - start)
            (match word.[0] with 'A' .. 'Z' -> UIDENT word | _ -> IDENT word)
      | c -> error (Printf.sprintf "unexpected character %C" c)
  in
  next
