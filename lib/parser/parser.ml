exception Parse_error of string * int * int

(* The lexer, and the values of the fact being parsed: a buffer reused
   from fact to fact, so a fact costs no list of its values. *)
type state = {
  lx : Lexer.t;
  mutable vals : Relational.Value.t array;
  mutable nvals : int;
}

let tok st = Lexer.token st.lx
let advance st = Lexer.advance st.lx

let error st msg =
  raise
    (Parse_error
       ( Fmt.str "%s (found '%a')" msg Lexer.pp_token (tok st),
         Lexer.line st.lx,
         Lexer.col st.lx ))

let expect st token msg = if tok st = token then advance st else error st msg

let expect_dot st = expect st Lexer.DOT "expected '.'"

(* ------------------------------------------------------------------ *)
(* Common pieces *)

let parse_value st =
  match tok st with
  | Lexer.INT i ->
      advance st;
      Relational.Value.int i
  | Lexer.MINUS ->
      advance st;
      (match tok st with
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
  match tok st with
  | Lexer.UIDENT x ->
      advance st;
      Ic.Term.var x
  | Lexer.INT i ->
      advance st;
      Ic.Term.int i
  | Lexer.MINUS ->
      advance st;
      (match tok st with
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
    match tok st with
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
  match tok st with
  | Lexer.PLUS ->
      advance st;
      (match tok st with
      | Lexer.INT i ->
          advance st;
          Ic.Builtin.shift { Ic.Builtin.base; offset = 0 } i
      | _ -> error st "expected integer offset")
  | Lexer.MINUS ->
      advance st;
      (match tok st with
      | Lexer.INT i ->
          advance st;
          Ic.Builtin.shift { Ic.Builtin.base; offset = 0 } (-i)
      | _ -> error st "expected integer offset")
  | _ -> { Ic.Builtin.base; offset = 0 }

let parse_comparison st lhs =
  match cmp_op_of_token (tok st) with
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
    match tok st with
    | Lexer.UIDENT name ->
        advance st;
        let a = parse_atom st name in
        (match tok st with
        | Lexer.COMMA ->
            advance st;
            go (a :: acc)
        | _ -> List.rev (a :: acc))
    | _ -> error st "expected a relation atom in the antecedent"
  in
  go []

let parse_consequent st =
  (* |-separated atoms and comparisons, or false *)
  if tok st = Lexer.IDENT "false" then begin
    advance st;
    ([], [])
  end
  else
    let rec go atoms builtins =
      let atoms, builtins =
        match tok st with
        | Lexer.UIDENT name -> (
            advance st;
            (* relation atom or a comparison starting with a variable *)
            match tok st with
            | Lexer.LPAREN -> (parse_atom st name :: atoms, builtins)
            | _ ->
                let lhs = { Ic.Builtin.base = Ic.Term.var name; offset = 0 } in
                let lhs =
                  match tok st with
                  | Lexer.PLUS ->
                      advance st;
                      (match tok st with
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
      match tok st with
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
  match tok st with
  | Lexer.PIPE ->
      advance st;
      Query.Qsyntax.Or (f, parse_disj st)
  | _ -> f

and parse_conj st =
  let f = parse_unary st in
  match tok st with
  | Lexer.AMP ->
      advance st;
      Query.Qsyntax.And (f, parse_conj st)
  | Lexer.COMMA ->
      advance st;
      Query.Qsyntax.And (f, parse_conj st)
  | _ -> f

and parse_unary st =
  match tok st with
  | Lexer.BANG ->
      advance st;
      Query.Qsyntax.Not (parse_unary st)
  | Lexer.LPAREN ->
      advance st;
      let f = parse_formula st in
      expect st Lexer.RPAREN "expected ')'";
      f
  | Lexer.IDENT ("exists" | "forall") ->
      let quant = match tok st with
        | Lexer.IDENT q -> q
        | _ -> assert false
      in
      advance st;
      let rec vars acc =
        match tok st with
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
      match tok st with
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
  match tok st with
  | Lexer.UIDENT name ->
      advance st;
      expect st Lexer.LPAREN "expected '('";
      let rec attrs acc =
        match tok st with
        | Lexer.IDENT a | Lexer.UIDENT a ->
            advance st;
            (match tok st with
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

(* the shared tail of facts and update statements, "(v, ..., v).", into
   the value buffer *)
let parse_values st =
  expect st Lexer.LPAREN "expected '('";
  st.nvals <- 0;
  let rec values () =
    let v = parse_value st in
    if st.nvals = Array.length st.vals then begin
      let bigger = Array.make (2 * st.nvals) Relational.Value.null in
      Array.blit st.vals 0 bigger 0 st.nvals;
      st.vals <- bigger
    end;
    st.vals.(st.nvals) <- v;
    st.nvals <- st.nvals + 1;
    match tok st with
    | Lexer.COMMA ->
        advance st;
        values ()
    | Lexer.RPAREN -> advance st
    | _ -> error st "expected ',' or ')'"
  in
  values ();
  expect_dot st

let value_list st =
  parse_values st;
  Array.to_list (Array.sub st.vals 0 st.nvals)

let parse_update st kind =
  match tok st with
  | Lexer.UIDENT name ->
      advance st;
      let vs = value_list st in
      if kind = `Insert then Surface.Insert (name, vs)
      else Surface.Delete (name, vs)
  | _ -> error st "expected relation name"

let parse_constraint st =
  let name =
    match tok st with
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
  match tok st with
  | Lexer.UIDENT rel ->
      advance st;
      expect st Lexer.LBRACKET "expected '['";
      (match tok st with
      | Lexer.INT pos ->
          advance st;
          expect st Lexer.RBRACKET "expected ']'";
          expect_dot st;
          Surface.NotNull (rel, pos)
      | _ -> error st "expected position")
  | _ -> error st "expected relation name"

let parse_query st =
  match tok st with
  | Lexer.IDENT name | Lexer.UIDENT name ->
      advance st;
      let head =
        match tok st with
        | Lexer.LPAREN ->
            advance st;
            let rec vars acc =
              match tok st with
              | Lexer.UIDENT x ->
                  advance st;
                  (match tok st with
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

let iter_items ~fact ~item input =
  let st = { lx = Lexer.make input; vals = Array.make 8 Relational.Value.null; nvals = 0 } in
  let rec items () =
    let line = Lexer.line st.lx in
    match tok st with
    | Lexer.EOF -> ()
    | Lexer.UIDENT name ->
        advance st;
        parse_values st;
        fact ~line name st.vals st.nvals;
        items ()
    | keyword ->
        let parse =
          match keyword with
          | Lexer.IDENT "relation" -> parse_relation
          | Lexer.IDENT "constraint" -> parse_constraint
          | Lexer.IDENT "not_null" -> parse_not_null
          | Lexer.IDENT "query" -> parse_query
          | Lexer.IDENT "insert" -> fun st -> parse_update st `Insert
          | Lexer.IDENT "delete" -> fun st -> parse_update st `Delete
          | _ ->
              error st
                "expected an item (relation, fact, constraint, not_null, \
                 query, insert, delete)"
        in
        advance st;
        item line (parse st);
        items ()
  in
  (* The input is lexed as it is parsed.  A lexical error anywhere in the
     file still takes precedence over a parse error before it: on any
     failure the rest of the input is lexed, and a lexer exception there
     is the one raised. *)
  match items () with
  | () -> ()
  | exception e ->
      while tok st <> Lexer.EOF do
        advance st
      done;
      raise e

let parse input =
  let acc = ref [] in
  iter_items input
    ~fact:(fun ~line:_ name vals n ->
      acc := Surface.Fact (name, Array.to_list (Array.sub vals 0 n)) :: !acc)
    ~item:(fun _ it -> acc := it :: !acc);
  List.rev !acc
