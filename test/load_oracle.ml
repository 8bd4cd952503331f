(* The surface loader as it was before facts were streamed into code
   rows, kept as the differential oracle of test_lang's loader tests: a
   generator lexer that makes a located record per token, a parser that
   builds a [Surface] item per fact, a loader that builds an atom per
   fact, and the tuple-sorting instance build (each relation's tuples
   sorted by [Tuple.compare] and deduplicated, then added in that order,
   so the segments come from the overlay's compactions, not from a rank
   sort).  Its results, every error message included, are the contract of
   [Lang.Load.of_string]. *)

module Schema = Relational.Schema
module Instance = Relational.Instance
module Surface = Lang.Surface

module Lexer = struct
  include Lang.Lexer

  type located = { token : token; line : int; col : int }

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
end

module Parser = struct
  exception Parse_error = Lang.Parser.Parse_error

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
end

type loaded = Lang.Load.loaded = {
  schema : Schema.t;
  instance : Instance.t;
  ics : Ic.Constr.t list;
  queries : (string * Query.Qsyntax.t) list;
  updates : Delta.op list;
}

let instance_of_atoms atoms =
  let tbl : (string, Relational.Tuple.t list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let p = Relational.Atom.pred a in
      match Hashtbl.find_opt tbl p with
      | Some l -> l := Relational.Atom.args a :: !l
      | None -> Hashtbl.add tbl p (ref [ Relational.Atom.args a ]))
    atoms;
  Hashtbl.fold
    (fun p l d ->
      let arr = Array.of_list !l in
      Array.sort Relational.Tuple.compare arr;
      let d = ref d in
      Array.iteri
        (fun i t ->
          if i = 0 || Relational.Tuple.compare t arr.(i - 1) <> 0 then
            d := Instance.add (Relational.Atom.of_tuple p t) !d)
        arr;
      !d)
    tbl Instance.empty

let ( let* ) = Result.bind

let default_attrs n = List.init n (fun i -> Printf.sprintf "c%d" (i + 1))

let note_arity schema rel arity =
  match Schema.arity schema rel with
  | None -> Ok (Schema.add_relation schema ~name:rel ~attrs:(default_attrs arity))
  | Some a when a = arity -> Ok schema
  | Some a ->
      Error (Printf.sprintf "relation %s has arity %d but is used with %d atoms" rel a arity)

(* The core load over line-located items.  [where line msg] renders a
   semantic error at the item starting on [line] — the file-aware entry
   points prefix "file:line:" so a fuzzer-minimized repro (or any scenario
   in the conformance corpus) points at the offending item. *)
let of_located_items ~where litems =
  let locate line r = Result.map_error (where line) r in
  (* pass 1: schema (declared and inferred) *)
  let* schema =
    List.fold_left
      (fun acc (line, item) ->
        let* schema = acc in
        locate line
          (match item with
          | Surface.Relation (name, attrs) ->
              if Schema.mem schema name then
                Error (Printf.sprintf "relation %s declared twice" name)
              else Ok (Schema.add_relation schema ~name ~attrs)
          | Surface.Fact (name, values)
          | Surface.Insert (name, values)
          | Surface.Delete (name, values) ->
              note_arity schema name (List.length values)
          | Surface.Constraint { ante; cons; _ } ->
              List.fold_left
                (fun acc a ->
                  let* schema = acc in
                  note_arity schema (Ic.Patom.pred a) (Ic.Patom.arity a))
                (Ok schema) (ante @ cons)
          | Surface.NotNull _ | Surface.Query _ -> Ok schema))
      (Ok Schema.empty) litems
  in
  (* pass 2: build everything; facts are collected for the tuple-sorting
     build of the instance, update statements in file order, not folded
     into the instance (see [Lang.Load.final_instance]) *)
  let* facts, rev_ics, rev_queries, rev_updates =
    List.fold_left
      (fun acc (line, item) ->
        let* facts, ics, queries, updates = acc in
        locate line
          (match item with
          | Surface.Relation _ -> Ok (facts, ics, queries, updates)
          | Surface.Fact (name, values) ->
              Ok
                ( Relational.Atom.make name values :: facts,
                  ics, queries, updates )
          | Surface.Insert (name, values) ->
              Ok
                ( facts, ics, queries,
                  Delta.insert (Relational.Atom.make name values) :: updates )
          | Surface.Delete (name, values) ->
              Ok
                ( facts, ics, queries,
                  Delta.delete (Relational.Atom.make name values) :: updates )
          | Surface.Constraint { name; ante; cons; phi } -> (
              match Ic.Constr.generic ?name ~ante ~cons ~phi () with
              | ic -> Ok (facts, ic :: ics, queries, updates)
              | exception Invalid_argument msg -> Error msg)
          | Surface.NotNull (rel, pos) -> (
              match Schema.arity schema rel with
              | None -> Error (Printf.sprintf "not_null on unknown relation %s" rel)
              | Some arity -> (
                  match Ic.Constr.not_null ~pred:rel ~arity ~pos () with
                  | ic -> Ok (facts, ic :: ics, queries, updates)
                  | exception Invalid_argument msg -> Error msg))
          | Surface.Query (name, head, body) -> (
              match Query.Qsyntax.make ~name ~head body with
              | q -> Ok (facts, ics, (line, name, q) :: queries, updates)
              | exception Invalid_argument msg -> Error msg)))
      (Ok ([], [], [], []))
      litems
  in
  (* validate query atoms against the schema *)
  let* () =
    List.fold_left
      (fun acc (line, name, q) ->
        let* () = acc in
        locate line
          (List.fold_left
             (fun acc atom ->
               let* () = acc in
               match Schema.arity schema (Ic.Patom.pred atom) with
               | None ->
                   Error
                     (Printf.sprintf "query %s mentions unknown relation %s" name
                        (Ic.Patom.pred atom))
               | Some a when a = Ic.Patom.arity atom -> Ok ()
               | Some a ->
                   Error
                     (Printf.sprintf "query %s uses %s with arity %d, expected %d" name
                        (Ic.Patom.pred atom) (Ic.Patom.arity atom) a))
             (Ok ())
             (Query.Qsyntax.atoms q.Query.Qsyntax.body)))
      (Ok ()) rev_queries
  in
  Ok
    {
      schema;
      instance = instance_of_atoms facts;
      ics = List.rev rev_ics;
      queries = List.rev_map (fun (_, name, q) -> (name, q)) rev_queries;
      updates = List.rev rev_updates;
    }

let where_of_file file line msg =
  match file with
  | Some f -> Printf.sprintf "%s:%d: %s" f line msg
  | None -> Printf.sprintf "line %d: %s" line msg

let of_string ?file input =
  let at line col msg =
    match file with
    | Some f -> Printf.sprintf "%s:%d:%d: %s" f line col msg
    | None -> Printf.sprintf "%d:%d: %s" line col msg
  in
  match Parser.parse_located input with
  | litems -> of_located_items ~where:(where_of_file file) litems
  | exception Parser.Parse_error (msg, line, col) ->
      Error (at line col (Printf.sprintf "parse error: %s" msg))
  | exception Lexer.Lex_error (msg, line, col) ->
      Error (at line col (Printf.sprintf "lexical error: %s" msg))
