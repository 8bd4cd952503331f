exception Parse_error of string * int * int

type state = { mutable current : Lexer.located; next : unit -> Lexer.located }

let peek st = st.current
let advance st = st.current <- st.next ()

let error st msg =
  let t = peek st in
  raise
    (Parse_error
       (Fmt.str "%s (found '%a')" msg Lexer.pp_token t.Lexer.token, t.Lexer.line, t.Lexer.col))

let expect st token msg =
  if (peek st).Lexer.token = token then advance st else error st msg

let expect_dot st = expect st Lexer.DOT "expected '.'"

(* ------------------------------------------------------------------ *)
(* Common pieces *)

let parse_value st =
  match (peek st).Lexer.token with
  | Lexer.INT i ->
      advance st;
      Relational.Value.int i
  | Lexer.MINUS ->
      advance st;
      (match (peek st).Lexer.token with
      | Lexer.INT i ->
          advance st;
          Relational.Value.int (-i)
      | _ -> error st "expected integer after '-'")
  | Lexer.IDENT "null" ->
      advance st;
      Relational.Value.null
  | Lexer.IDENT s | Lexer.UIDENT s ->
      advance st;
      Relational.Value.str s
  | Lexer.STRING s ->
      advance st;
      Relational.Value.str s
  | _ -> error st "expected a constant"

(* a term in a constraint or query: capitalized = variable *)
let parse_term st =
  match (peek st).Lexer.token with
  | Lexer.UIDENT x ->
      advance st;
      Ic.Term.var x
  | Lexer.INT i ->
      advance st;
      Ic.Term.int i
  | Lexer.MINUS ->
      advance st;
      (match (peek st).Lexer.token with
      | Lexer.INT i ->
          advance st;
          Ic.Term.int (-i)
      | _ -> error st "expected integer after '-'")
  | Lexer.IDENT "null" -> error st "null may not appear in constraints or queries (use isnull or not_null)"
  | Lexer.IDENT s ->
      advance st;
      Ic.Term.str s
  | Lexer.STRING s ->
      advance st;
      Ic.Term.str s
  | _ -> error st "expected a term"

let parse_term_list st =
  expect st Lexer.LPAREN "expected '('";
  let rec go acc =
    let t = parse_term st in
    match (peek st).Lexer.token with
    | Lexer.COMMA ->
        advance st;
        go (t :: acc)
    | Lexer.RPAREN ->
        advance st;
        List.rev (t :: acc)
    | _ -> error st "expected ',' or ')'"
  in
  go []

let parse_atom st name =
  Ic.Patom.make name (parse_term_list st)

let cmp_op_of_token = function
  | Lexer.EQ -> Some Ic.Builtin.Eq
  | Lexer.NEQ -> Some Ic.Builtin.Neq
  | Lexer.LT -> Some Ic.Builtin.Lt
  | Lexer.LEQ -> Some Ic.Builtin.Leq
  | Lexer.GT -> Some Ic.Builtin.Gt
  | Lexer.GEQ -> Some Ic.Builtin.Geq
  | _ -> None

(* expr := term [ (+|-) INT ] *)
let parse_expr st =
  let base = parse_term st in
  match (peek st).Lexer.token with
  | Lexer.PLUS ->
      advance st;
      (match (peek st).Lexer.token with
      | Lexer.INT i ->
          advance st;
          Ic.Builtin.shift { Ic.Builtin.base; offset = 0 } i
      | _ -> error st "expected integer offset")
  | Lexer.MINUS ->
      advance st;
      (match (peek st).Lexer.token with
      | Lexer.INT i ->
          advance st;
          Ic.Builtin.shift { Ic.Builtin.base; offset = 0 } (-i)
      | _ -> error st "expected integer offset")
  | _ -> { Ic.Builtin.base; offset = 0 }

let parse_comparison st lhs =
  match cmp_op_of_token (peek st).Lexer.token with
  | Some op ->
      advance st;
      let rhs = parse_expr st in
      Ic.Builtin.cmp op lhs rhs
  | None -> error st "expected a comparison operator"

(* ------------------------------------------------------------------ *)
(* Constraints *)

let parse_constraint_body st =
  (* conjunction of atoms *)
  let rec go acc =
    match (peek st).Lexer.token with
    | Lexer.UIDENT name ->
        advance st;
        let a = parse_atom st name in
        (match (peek st).Lexer.token with
        | Lexer.COMMA ->
            advance st;
            go (a :: acc)
        | _ -> List.rev (a :: acc))
    | _ -> error st "expected a relation atom in the antecedent"
  in
  go []

let parse_consequent st =
  (* |-separated atoms and comparisons, or false *)
  if (peek st).Lexer.token = Lexer.IDENT "false" then begin
    advance st;
    ([], [])
  end
  else
    let rec go atoms builtins =
      let atoms, builtins =
        match (peek st).Lexer.token with
        | Lexer.UIDENT name -> (
            advance st;
            (* relation atom or a comparison starting with a variable *)
            match (peek st).Lexer.token with
            | Lexer.LPAREN -> (parse_atom st name :: atoms, builtins)
            | _ ->
                let lhs = { Ic.Builtin.base = Ic.Term.var name; offset = 0 } in
                let lhs =
                  match (peek st).Lexer.token with
                  | Lexer.PLUS ->
                      advance st;
                      (match (peek st).Lexer.token with
                      | Lexer.INT i ->
                          advance st;
                          Ic.Builtin.shift lhs i
                      | _ -> error st "expected integer offset")
                  | _ -> lhs
                in
                (atoms, parse_comparison st lhs :: builtins))
        | _ ->
            let lhs = parse_expr st in
            (atoms, parse_comparison st lhs :: builtins)
      in
      match (peek st).Lexer.token with
      | Lexer.PIPE ->
          advance st;
          go atoms builtins
      | _ -> (List.rev atoms, List.rev builtins)
    in
    go [] []

(* ------------------------------------------------------------------ *)
(* Queries *)

let rec parse_formula st = parse_disj st

and parse_disj st =
  let f = parse_conj st in
  match (peek st).Lexer.token with
  | Lexer.PIPE ->
      advance st;
      Query.Qsyntax.Or (f, parse_disj st)
  | _ -> f

and parse_conj st =
  let f = parse_unary st in
  match (peek st).Lexer.token with
  | Lexer.AMP ->
      advance st;
      Query.Qsyntax.And (f, parse_conj st)
  | Lexer.COMMA ->
      advance st;
      Query.Qsyntax.And (f, parse_conj st)
  | _ -> f

and parse_unary st =
  match (peek st).Lexer.token with
  | Lexer.BANG ->
      advance st;
      Query.Qsyntax.Not (parse_unary st)
  | Lexer.LPAREN ->
      advance st;
      let f = parse_formula st in
      expect st Lexer.RPAREN "expected ')'";
      f
  | Lexer.IDENT ("exists" | "forall") ->
      let quant = match (peek st).Lexer.token with
        | Lexer.IDENT q -> q
        | _ -> assert false
      in
      advance st;
      let rec vars acc =
        match (peek st).Lexer.token with
        | Lexer.UIDENT x ->
            advance st;
            vars (x :: acc)
        | Lexer.DOT ->
            advance st;
            List.rev acc
        | _ -> error st "expected variables then '.'"
      in
      let xs = vars [] in
      if xs = [] then error st "quantifier binds no variables";
      let f = parse_formula st in
      if quant = "exists" then Query.Qsyntax.Exists (xs, f)
      else Query.Qsyntax.Forall (xs, f)
  | Lexer.IDENT "isnull" ->
      advance st;
      expect st Lexer.LPAREN "expected '('";
      let t = parse_term st in
      expect st Lexer.RPAREN "expected ')'";
      Query.Qsyntax.IsNull t
  | Lexer.UIDENT name -> (
      advance st;
      match (peek st).Lexer.token with
      | Lexer.LPAREN -> Query.Qsyntax.Atom (parse_atom st name)
      | _ ->
          let lhs = { Ic.Builtin.base = Ic.Term.var name; offset = 0 } in
          Query.Qsyntax.Builtin (parse_comparison st lhs))
  | Lexer.INT _ | Lexer.STRING _ | Lexer.IDENT _ | Lexer.MINUS ->
      let lhs = parse_expr st in
      Query.Qsyntax.Builtin (parse_comparison st lhs)
  | _ -> error st "expected a formula"

(* ------------------------------------------------------------------ *)
(* Items *)

let parse_relation st =
  match (peek st).Lexer.token with
  | Lexer.UIDENT name ->
      advance st;
      expect st Lexer.LPAREN "expected '('";
      let rec attrs acc =
        match (peek st).Lexer.token with
        | Lexer.IDENT a | Lexer.UIDENT a ->
            advance st;
            (match (peek st).Lexer.token with
            | Lexer.COMMA ->
                advance st;
                attrs (a :: acc)
            | Lexer.RPAREN ->
                advance st;
                List.rev (a :: acc)
            | _ -> error st "expected ',' or ')'")
        | _ -> error st "expected attribute name"
      in
      let a = attrs [] in
      expect_dot st;
      Surface.Relation (name, a)
  | _ -> error st "expected relation name"

(* the shared tail of facts and update statements: "(v, ..., v)." *)
let parse_value_list st =
  expect st Lexer.LPAREN "expected '('";
  let rec values acc =
    let v = parse_value st in
    match (peek st).Lexer.token with
    | Lexer.COMMA ->
        advance st;
        values (v :: acc)
    | Lexer.RPAREN ->
        advance st;
        List.rev (v :: acc)
    | _ -> error st "expected ',' or ')'"
  in
  let vs = values [] in
  expect_dot st;
  vs

let parse_fact st name = Surface.Fact (name, parse_value_list st)

let parse_update st kind =
  match (peek st).Lexer.token with
  | Lexer.UIDENT name ->
      advance st;
      let vs = parse_value_list st in
      if kind = `Insert then Surface.Insert (name, vs)
      else Surface.Delete (name, vs)
  | _ -> error st "expected relation name"

let parse_constraint st =
  let name =
    match (peek st).Lexer.token with
    | Lexer.IDENT n when n <> "false" ->
        advance st;
        Some n
    | Lexer.UIDENT n ->
        advance st;
        Some n
    | _ -> None
  in
  expect st Lexer.COLON "expected ':' after constraint";
  let ante = parse_constraint_body st in
  expect st Lexer.ARROW "expected '->'";
  let cons, phi = parse_consequent st in
  expect_dot st;
  Surface.Constraint { name; ante; cons; phi }

let parse_not_null st =
  match (peek st).Lexer.token with
  | Lexer.UIDENT rel ->
      advance st;
      expect st Lexer.LBRACKET "expected '['";
      (match (peek st).Lexer.token with
      | Lexer.INT pos ->
          advance st;
          expect st Lexer.RBRACKET "expected ']'";
          expect_dot st;
          Surface.NotNull (rel, pos)
      | _ -> error st "expected position")
  | _ -> error st "expected relation name"

let parse_query st =
  match (peek st).Lexer.token with
  | Lexer.IDENT name | Lexer.UIDENT name ->
      advance st;
      let head =
        match (peek st).Lexer.token with
        | Lexer.LPAREN ->
            advance st;
            let rec vars acc =
              match (peek st).Lexer.token with
              | Lexer.UIDENT x ->
                  advance st;
                  (match (peek st).Lexer.token with
                  | Lexer.COMMA ->
                      advance st;
                      vars (x :: acc)
                  | Lexer.RPAREN ->
                      advance st;
                      List.rev (x :: acc)
                  | _ -> error st "expected ',' or ')'")
              | Lexer.RPAREN ->
                  advance st;
                  List.rev acc
              | _ -> error st "expected variable"
            in
            vars []
        | _ -> []
      in
      expect st Lexer.COLON "expected ':'";
      let body = parse_formula st in
      expect_dot st;
      Surface.Query (name, head, body)
  | _ -> error st "expected query name"

let parse_located input =
  let next = Lexer.lexer input in
  let st = { current = next (); next } in
  let rec items acc =
    let line = (peek st).Lexer.line in
    let located item = (line, item) in
    match (peek st).Lexer.token with
    | Lexer.EOF -> List.rev acc
    | Lexer.IDENT "relation" ->
        advance st;
        items (located (parse_relation st) :: acc)
    | Lexer.IDENT "constraint" ->
        advance st;
        items (located (parse_constraint st) :: acc)
    | Lexer.IDENT "not_null" ->
        advance st;
        items (located (parse_not_null st) :: acc)
    | Lexer.IDENT "query" ->
        advance st;
        items (located (parse_query st) :: acc)
    | Lexer.IDENT "insert" ->
        advance st;
        items (located (parse_update st `Insert) :: acc)
    | Lexer.IDENT "delete" ->
        advance st;
        items (located (parse_update st `Delete) :: acc)
    | Lexer.UIDENT name ->
        advance st;
        items (located (parse_fact st name) :: acc)
    | _ ->
        error st
          "expected an item (relation, fact, constraint, not_null, query, \
           insert, delete)"
  in
  (* The input is lexed as it is parsed.  A lexical error anywhere in the
     file still takes precedence over a parse error before it: on any
     failure the rest of the input is lexed, and a lexer exception there
     is the one raised. *)
  match items [] with
  | parsed -> parsed
  | exception e ->
      let rec drain () = if (next ()).Lexer.token <> Lexer.EOF then drain () in
      drain ();
      raise e

let parse input = List.map snd (parse_located input)
