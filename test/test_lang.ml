(* Tests for the surface language: lexer, parser, loader. *)

module Value = Relational.Value
module Instance = Relational.Instance
module Load = Lang.Load
module Q = Query.Qsyntax

let load s =
  match Load.of_string s with
  | Ok l -> l
  | Error msg -> Alcotest.failf "load failed: %s" msg

(* ------------------------------------------------------------------ *)

let example15_text =
  {|
  % Example 14/15 of the paper
  relation Course(id, code).
  relation Student(id, name).

  Course(21, c15).
  Course(34, c18).
  Student(21, ann).
  Student(45, paul).

  constraint ric: Course(I, C) -> Student(I, N).

  query students(I, N): Student(I, N).
  query has21: exists N. Student(21, N).
  |}

let test_example15_file () =
  let l = load example15_text in
  Alcotest.(check int) "4 facts" 4 (Instance.cardinal l.Load.instance);
  Alcotest.(check int) "1 constraint" 1 (List.length l.Load.ics);
  Alcotest.(check int) "2 queries" 2 (List.length l.Load.queries);
  Alcotest.(check bool) "constraint is RIC" true
    (Ic.Classify.is_ric (List.hd l.Load.ics));
  Alcotest.(check (option int)) "schema arity" (Some 2)
    (Relational.Schema.arity l.Load.schema "Course");
  (* end-to-end: repairs of the parsed scenario *)
  let reps = Repair.Enumerate.repairs l.Load.instance l.Load.ics in
  Alcotest.(check int) "two repairs" 2 (List.length reps)

let test_null_and_types () =
  let l = load {|
    P(null, 42, "hello world", foo, Bar).
  |} in
  match Instance.atoms l.Load.instance with
  | [ a ] ->
      let args = Relational.Atom.args a in
      Alcotest.(check bool) "null" true (Value.is_null args.(0));
      Alcotest.(check bool) "int" true (Value.equal args.(1) (Value.int 42));
      Alcotest.(check bool) "string" true
        (Value.equal args.(2) (Value.str "hello world"));
      Alcotest.(check bool) "ident" true (Value.equal args.(3) (Value.str "foo"));
      Alcotest.(check bool) "uident constant in fact" true
        (Value.equal args.(4) (Value.str "Bar"))
  | l -> Alcotest.failf "expected one atom, got %d" (List.length l)

let test_constraint_shapes () =
  let l =
    load
      {|
      relation R(a, b).
      relation S(a, b).
      relation Emp(i, n, s).
      constraint key: R(X, Y), R(X, Z) -> Y = Z.
      constraint fk: S(U, V) -> R(V, W).
      constraint chk: Emp(I, N, S) -> S > 100.
      constraint denial: R(X, X) -> false.
      constraint age: Emp(I, N, S), Emp(I2, N2, S2) -> S2 > S + 15.
      not_null R[1].
      |}
  in
  let classes = List.map Ic.Classify.classify l.Load.ics in
  Alcotest.(check (list string)) "classes"
    [ "UIC"; "RIC"; "UIC"; "UIC"; "UIC"; "NNC" ]
    (List.map (Fmt.str "%a" Ic.Classify.pp_cls) classes);
  Alcotest.(check bool) "check constraint" true (Ic.Classify.is_check (List.nth l.Load.ics 2));
  Alcotest.(check bool) "denial" true (Ic.Classify.is_denial (List.nth l.Load.ics 3))

let test_query_formulas () =
  let l =
    load
      {|
      relation P(a, b).
      relation T(a).
      query q1(X): exists Y. P(X, Y) & !T(X).
      query q2(X): exists Y. (P(X, Y) | T(X)) & X != 3.
      query q3: forall X. (!T(X) | exists Y. P(X, Y)).
      query q4(X): exists Y. P(X, Y) & isnull(Y).
      |}
  in
  Alcotest.(check int) "four queries" 4 (List.length l.Load.queries);
  let q3 = List.assoc "q3" l.Load.queries in
  Alcotest.(check bool) "q3 boolean" true (Q.is_boolean q3);
  (* evaluate q4 on a small instance *)
  let d = Instance.of_list [ ("P", [ Value.str "a"; Value.null ]); ("P", [ Value.str "b"; Value.str "c" ]) ] in
  let answers = Query.Qeval.answers d (List.assoc "q4" l.Load.queries) in
  Alcotest.(check int) "one null match" 1 (Relational.Tuple.Set.cardinal answers)

(* ------------------------------------------------------------------ *)
(* The loader against its oracle.  [Load_oracle] is the loader as it was
   before facts were streamed into code rows: a located record per token,
   a [Surface] item and an atom per fact, and the tuple-sorting instance
   build.  A load must agree with it on the schema, the constraints, the
   queries, the updates and the instance (under [equal], [compare] and
   [pp]), or fail with the same message. *)

let summary (l : Load.loaded) =
  Fmt.str "%s; ics %d; queries [%s]; updates %d"
    (String.concat " "
       (String.split_on_char '\n' (Lang.Emit.instance l.Load.instance)))
    (List.length l.Load.ics)
    (String.concat ", " (List.map fst l.Load.queries))
    (List.length l.Load.updates)

let same_load label (got : (Load.loaded, string) result)
    (want : (Load.loaded, string) result) =
  match (got, want) with
  | Error g, Error w -> Alcotest.(check string) (label ^ ": error") w g
  | Ok g, Ok w ->
      let str pp x = Fmt.str "%a" pp x in
      Alcotest.(check bool) (label ^ ": schema") true
        (Relational.Schema.relations g.Load.schema
        = Relational.Schema.relations w.Load.schema);
      Alcotest.(check bool) (label ^ ": constraints") true
        (List.equal Ic.Constr.equal g.Load.ics w.Load.ics);
      Alcotest.(check (list (pair string string)))
        (label ^ ": queries")
        (List.map (fun (n, q) -> (n, str Q.pp q)) w.Load.queries)
        (List.map (fun (n, q) -> (n, str Q.pp q)) g.Load.queries);
      Alcotest.(check string) (label ^ ": updates")
        (str Delta.pp w.Load.updates) (str Delta.pp g.Load.updates);
      Alcotest.(check bool) (label ^ ": instance equal") true
        (Instance.equal g.Load.instance w.Load.instance);
      Alcotest.(check int) (label ^ ": instance compare") 0
        (Instance.compare g.Load.instance w.Load.instance);
      Alcotest.(check string) (label ^ ": instance pp")
        (str Instance.pp w.Load.instance) (str Instance.pp g.Load.instance)
  | Ok _, Error w -> Alcotest.failf "%s: loaded, the oracle failed with %s" label w
  | Error g, Ok _ -> Alcotest.failf "%s: failed with %s, the oracle loaded" label g

(* Loader inputs with the exact outcome each one must have: [Ok] with the
   loaded file's summary, or [Error] with the message.  Every row runs
   through the loader and its oracle. *)
let cases : (string * string * (string, string) result) list =
  [
    (* the former error checks *)
    ( "arity against a declaration",
      "relation P(a).\nP(1, 2).",
      Error "line 2: relation P has arity 1 but is used with 2 atoms" );
    ( "parse error in a constraint",
      "constraint : ->.",
      Error "1:14: parse error: expected a relation atom in the antecedent (found '->')" );
    ( "null in a constraint",
      "constraint c: P(X) -> Q(null).",
      Error "1:25: parse error: null may not appear in constraints or queries (use isnull or not_null) (found 'null')" );
    ( "not_null on an unknown relation",
      "not_null R[1].",
      Error "line 1: not_null on unknown relation R" );
    ( "not_null out of range",
      "relation R(a).\nnot_null R[4].",
      Error "line 2: Constr.not_null: position 4 out of range 1..1" );
    ( "query head variable not in the body",
      "relation P(a).\nquery q(X): P(Y).",
      Error "line 2: Query.make: head variable X does not occur in the body" );
    ( "query on an unknown relation",
      "query q(X): P(X).",
      Error "line 1: query q mentions unknown relation P" );
    ( "unterminated string",
      "P(\"abc).",
      Error "1:3: lexical error: unterminated string literal" );
    ( "lexical error after a parse error",
      "P(1,.\nQ(2).\nR($).\n",
      Error "3:3: lexical error: unexpected character '$'" );
    ( "integer literal past max_int",
      "P(1).\nR(99999999999999999999).\n",
      Error "2:3: lexical error: integer literal 99999999999999999999 out of range" );
    ( "parse error alone",
      "P(1,.\nQ(2).\n",
      Error "1:5: parse error: expected a constant (found '.')" );
    (* bad tokens and integer literals *)
    ( "bad token in a fact",
      "P(1) @ .",
      Error "1:6: lexical error: unexpected character '@'" );
    ( "backquote in an identifier",
      "P(a`b).",
      Error "1:4: lexical error: unexpected character '`'" );
    ( "max_int itself",
      "P(4611686018427387903).",
      Ok "P(4611686018427387903).; ics 0; queries []; updates 0" );
    ( "one past max_int",
      "P(4611686018427387904).",
      Error "1:3: lexical error: integer literal 4611686018427387904 out of range" );
    ( "minus without an integer",
      "P(-).",
      Error "1:4: parse error: expected integer after '-' (found ')')" );
    ( "minus before a word",
      "P(- a).",
      Error "1:5: parse error: expected integer after '-' (found 'a')" );
    ( "unterminated string at the end",
      "P(1).\nQ(\"ab",
      Error "2:3: lexical error: unterminated string literal" );
    ( "empty fact",
      "P().",
      Error "1:3: parse error: expected a constant (found ')')" );
    (* arity clashes *)
    ( "fact against fact",
      "P(1).\nP(1, 2).",
      Error "line 2: relation P has arity 1 but is used with 2 atoms" );
    ( "fact against a constraint atom",
      "constraint c: P(X, Y) -> false.\nP(1).",
      Error "line 2: relation P has arity 2 but is used with 1 atoms" );
    ( "constraint atom against a fact",
      "P(1).\nconstraint c: P(X, Y) -> false.",
      Error "line 2: relation P has arity 1 but is used with 2 atoms" );
    ( "query against facts",
      "P(1).\nquery q(X): exists Y. P(X, Y).",
      Error "line 2: query q uses P with arity 2, expected 1" );
    ( "insert against facts",
      "P(1).\ninsert P(1, 2).",
      Error "line 2: relation P has arity 1 but is used with 2 atoms" );
    ( "relation declared after its facts",
      "P(1).\nrelation P(a).",
      Error "line 2: relation P declared twice" );
    ( "relation declared twice",
      "relation P(a).\nrelation P(b).",
      Error "line 2: relation P declared twice" );
    (* precedence: lexical, then parse, then schema, then the other items *)
    ( "schema error on a later line beats an earlier not_null error",
      "not_null R[1].\nP(1).\nP(1, 2).",
      Error "line 3: relation P has arity 1 but is used with 2 atoms" );
    ( "first schema error in file order",
      "P(1).\nP(1, 2).\nrelation P(a).",
      Error "line 2: relation P has arity 1 but is used with 2 atoms" );
    ( "schema error before a parse error",
      "P(1).\nP(1, 2).\nQ(3",
      Error "3:4: parse error: expected ',' or ')' (found '<eof>')" );
    ( "lexical error after a schema error",
      "P(1).\nP(1, 2).\nQ(&$).",
      Error "3:4: lexical error: unexpected character '$'" );
    ( "not_null error before a query error",
      "relation P(a).\nquery q(X): Z(X).\nnot_null P[2].",
      Error "line 3: Constr.not_null: position 2 out of range 1..1" );
    (* truncation at every item boundary, then inside items *)
    ( "empty input",
      "",
      Ok "; ics 0; queries []; updates 0" );
    ( "truncated after the declaration",
      "relation R(a, b).\n",
      Ok "; ics 0; queries []; updates 0" );
    ( "truncated after a fact",
      "relation R(a, b).\nR(1, x).\n",
      Ok "R(1, x).; ics 0; queries []; updates 0" );
    ( "truncated after the constraint",
      "relation R(a, b).\nR(1, x).\nconstraint k: R(X, Y), R(X, Z) -> Y = Z.\n",
      Ok "R(1, x).; ics 1; queries []; updates 0" );
    ( "truncated after not_null",
      "relation R(a, b).\nR(1, x).\nconstraint k: R(X, Y), R(X, Z) -> Y = Z.\nnot_null R[1].\n",
      Ok "R(1, x).; ics 2; queries []; updates 0" );
    ( "truncated after the query",
      "relation R(a, b).\nR(1, x).\nconstraint k: R(X, Y), R(X, Z) -> Y = Z.\nnot_null R[1].\nquery q(X): exists Y. R(X, Y).\n",
      Ok "R(1, x).; ics 2; queries [q]; updates 0" );
    ( "truncated after the insert",
      "relation R(a, b).\nR(1, x).\nconstraint k: R(X, Y), R(X, Z) -> Y = Z.\nnot_null R[1].\nquery q(X): exists Y. R(X, Y).\ninsert R(2, y).\n",
      Ok "R(1, x).; ics 2; queries [q]; updates 1" );
    ( "whole file",
      "relation R(a, b).\nR(1, x).\nconstraint k: R(X, Y), R(X, Z) -> Y = Z.\nnot_null R[1].\nquery q(X): exists Y. R(X, Y).\ninsert R(2, y).\ndelete R(1, x).\n",
      Ok "R(1, x).; ics 2; queries [q]; updates 2" );
    ( "truncated in a declaration",
      "relation R(a,",
      Error "1:14: parse error: expected attribute name (found '<eof>')" );
    ( "truncated after a fact's name",
      "R",
      Error "1:2: parse error: expected '(' (found '<eof>')" );
    ( "truncated after a fact's parenthesis",
      "R(",
      Error "1:3: parse error: expected a constant (found '<eof>')" );
    ( "truncated after a fact's value",
      "R(1",
      Error "1:4: parse error: expected ',' or ')' (found '<eof>')" );
    ( "truncated after a fact's comma",
      "R(1, ",
      Error "1:6: parse error: expected a constant (found '<eof>')" );
    ( "truncated before a fact's dot",
      "R(1, x)",
      Error "1:8: parse error: expected '.' (found '<eof>')" );
    ( "truncated in a constraint",
      "constraint k: R(X, Y) -> Y",
      Error "1:27: parse error: expected a comparison operator (found '<eof>')" );
    ( "truncated in a query",
      "query q(X): exists Y.",
      Error "1:22: parse error: expected a formula (found '<eof>')" );
    ( "truncated in an insert",
      "insert R(2",
      Error "1:11: parse error: expected ',' or ')' (found '<eof>')" );
    (* odd but valid *)
    ( "comment and newlines inside a fact",
      "P(1, % comment\n\n 2).",
      Ok "P(1, 2).; ics 0; queries []; updates 0" );
    ( "minus apart from its integer",
      "P(- 5).",
      Ok "P(-5).; ics 0; queries []; updates 0" );
    ( "quoted null against null",
      "P(\"null\").\nP(null).",
      Ok "P(null). P(\"null\").; ics 0; queries []; updates 0" );
    ( "capitalized constants",
      "P(Ann, bob).",
      Ok "P(\"Ann\", bob).; ics 0; queries []; updates 0" );
    ( "quoted comma and parenthesis",
      "P(\"a,b\", \"c)\").",
      Ok "P(\"a,b\", \"c)\").; ics 0; queries []; updates 0" );
    ( "quote marks in identifiers",
      "P(x', y'').",
      Ok "P(x', y'').; ics 0; queries []; updates 0" );
    ( "crlf line endings",
      "P(1).\r\nQ(2).\r\n",
      Ok "P(1). Q(2).; ics 0; queries []; updates 0" );
    ( "crlf before a lexical error",
      "P(1).\r\nQ($).\r\n",
      Error "2:3: lexical error: unexpected character '$'" );
    ( "newline inside a quoted string",
      "P(\"a\nb\").\nQ($).",
      Error "3:3: lexical error: unexpected character '$'" );
    ( "no final newline",
      "P(1).",
      Ok "P(1).; ics 0; queries []; updates 0" );
    ( "segment with duplicates",
      "P(3). P(1). P(2). P(1). P(-4). P(null). P(b). P(a). P(\"a\"). P(10). P(3).",
      Ok "P(null). P(-4). P(1). P(2). P(3). P(10). P(a). P(b).; ics 0; queries []; updates 0" );
    ( "mixed kinds in a segment",
      "R(1, x). R(1, null). R(-2, y). R(x, 1). R(\"\", 0). R(a, a). R(ab, b). R(abcdefghij, 1). R(abcdefghi, 1). R(abcdefghij, 0).",
      Ok "R(-2, y). R(1, null). R(1, x). R(\"\", 0). R(a, a). R(ab, b). R(abcdefghi, 1). R(abcdefghij, 0). R(abcdefghij, 1). R(x, 1).; ics 0; queries []; updates 0" );
  ]

let test_cases () =
  List.iter
    (fun (name, input, expected) ->
      let got = Load.of_string input in
      Alcotest.(check (result string string)) name expected (Result.map summary got);
      same_load name got (Load_oracle.of_string input))
    cases

(* every .cqa file under scenarios/ and test/ *)
let test_oracle_files () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun f ->
           let path = Filename.concat dir f in
           if Sys.is_directory path then files path
           else if Filename.check_suffix f ".cqa" then [ path ]
           else [])
  in
  let paths = files "../scenarios" @ files "." in
  Alcotest.(check bool) "files found" true (List.length paths >= 25);
  List.iter
    (fun path ->
      let text = In_channel.with_open_bin path In_channel.input_all in
      same_load path (Load.of_file path) (Load_oracle.of_string ~file:path text))
    paths

(* the generators' instances and constraints, written through Emit, with
   every segment regime: tiny relations, mixed kinds, nulls *)
let test_oracle_workloads () =
  let module G = Workload.Gen in
  let workloads =
    [
      G.scale_workload ~seed:3 ~tuples:6_000 ~fd_conflicts:4 ~orphans:4 ();
      G.fk_workload ~seed:2 ~n_parent:300 ~n_child:500 ~orphan_rate:0.1 ~null_rate:0.1 ();
      G.fd_workload ~seed:4 ~width:3 ~n:400 ~dup_rate:0.2 ();
      G.check_workload ~seed:5 ~n:300 ~viol_rate:0.1 ~null_rate:0.1 ();
      G.denial_workload ~seed:6 ~n:300 ~viol_rate:0.1 ();
      G.clusters_workload ~padding:10 ~weight:4 ~k:16 ();
      G.chain_workload ~seed:7 ~n:40 ~broken:3 ();
    ]
    @ List.init 30 (fun seed -> G.random_case ~seed ())
    @ List.init 30 (fun seed -> G.route_case ~seed ())
  in
  (* without a schema, a file whose constraints name a relation with no
     facts fails to load (not_null on an unknown relation), and so does
     its oracle *)
  let loaded =
    List.filter
      (fun (w : G.t) ->
        let text = Lang.Emit.file ~ics:w.G.ics w.G.d in
        let got = Load.of_string text in
        same_load w.G.label got (Load_oracle.of_string text);
        match got with
        | Ok l ->
            Alcotest.(check bool) (w.G.label ^ ": the generator's instance") true
              (Instance.equal l.Load.instance w.G.d);
            true
        | Error _ -> false)
      workloads
  in
  Alcotest.(check bool) "most workloads load" true (List.length loaded >= 60)

let test_oracle_fuzz () =
  for seed = 1 to 200 do
    let text = Conform.Fuzz.source (Conform.Fuzz.gen ~seed ()) in
    same_load (Printf.sprintf "fuzz seed %d" seed) (Load.of_string text)
      (Load_oracle.of_string text)
  done

(* A load allocates in proportion to its text: at most 60 words per tuple,
   counted exactly, on a 20k-tuple file whose values are already interned.
   A located record per token and an atom per fact cost about 285. *)
let test_load_words () =
  let w = Workload.Gen.scale_workload ~seed:1 ~tuples:20_000 ~fd_conflicts:4 ~orphans:4 () in
  let text = Lang.Emit.file ~ics:w.Workload.Gen.ics w.Workload.Gen.d in
  ignore (load text);
  let l, words = Alloc.allocated (fun () -> load text) in
  let tuples = Instance.cardinal l.Load.instance in
  Alcotest.(check int) "every tuple loaded" 20_000 tuples;
  let per_tuple = words /. float_of_int tuples in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per tuple <= 60" per_tuple)
    true (per_tuple <= 60.)

let test_roundtrip_paper_scenarios () =
  (* the surface file reproducing Example 19 parses into the same repairs *)
  let text =
    {|
    relation R(a, b).
    relation S(u, v).
    R(a, b).  R(a, c).
    S(e, f).  S(null, a).
    constraint key: R(X, Y), R(X, Z) -> Y = Z.
    constraint fk: S(U, V) -> R(V, W).
    not_null R[1].
    |}
  in
  let l = load text in
  let reps = Repair.Enumerate.repairs l.Load.instance l.Load.ics in
  Alcotest.(check int) "four repairs as in Example 19" 4 (List.length reps)

let test_lexer_edges () =
  let l = load "P(-5).\nQ(\"two words\", x').\n" in
  Alcotest.(check int) "two facts" 2 (Instance.cardinal l.Load.instance);
  (match Instance.atoms l.Load.instance with
  | atoms ->
      Alcotest.(check bool) "negative int parsed" true
        (List.exists
           (fun a -> Relational.Atom.pred a = "P"
                     && Value.equal (Relational.Atom.args a).(0) (Value.int (-5)))
           atoms));
  (* empty input *)
  let e = load "" in
  Alcotest.(check int) "empty file" 0 (Instance.cardinal e.Load.instance);
  (* comment at eof without newline *)
  let c = load "P(1). % trailing comment" in
  Alcotest.(check int) "comment at eof" 1 (Instance.cardinal c.Load.instance)

let test_query_comparisons () =
  let l =
    load
      {|
      relation P(a, b).
      query cmp(X, Y): P(X, Y) & X < Y.
      query shifted(X): exists Y. P(X, Y) & Y > X + 2.
      |}
  in
  let d = Instance.of_list [ ("P", [ Value.int 1; Value.int 2 ]); ("P", [ Value.int 5; Value.int 9 ]) ] in
  let answers name = Relational.Tuple.Set.cardinal (Query.Qeval.answers d (List.assoc name l.Load.queries)) in
  Alcotest.(check int) "both pairs ordered" 2 (answers "cmp");
  Alcotest.(check int) "offset comparison" 1 (answers "shifted")

let test_comments_and_whitespace () =
  let l = load "% comment\n# another\nP(1). % trailing\n" in
  Alcotest.(check int) "one fact" 1 (Instance.cardinal l.Load.instance)

(* ------------------------------------------------------------------ *)
(* Emit: surface-syntax serialization round-trips through Load *)

let check_roundtrip label (l : Load.loaded) =
  match Load.of_string (Lang.Emit.loaded l) with
  | Error msg -> Alcotest.failf "%s: reload failed: %s" label msg
  | Ok l' ->
      Alcotest.(check bool) (label ^ ": instance") true
        (Instance.equal l.Load.instance l'.Load.instance);
      Alcotest.(check bool) (label ^ ": constraints") true
        (List.equal Ic.Constr.equal l.Load.ics l'.Load.ics);
      Alcotest.(check int)
        (label ^ ": query count")
        (List.length l.Load.queries)
        (List.length l'.Load.queries)

let test_emit_roundtrip () =
  check_roundtrip "example15" (load example15_text);
  check_roundtrip "shapes"
    (load
       {|
       relation R(a, b).
       relation S(a, b).
       relation Emp(i, n, s).
       R(1, "two words").  R(null, x').
       constraint key: R(X, Y), R(X, Z) -> Y = Z.
       constraint fk: S(U, V) -> R(V, W).
       constraint chk: Emp(I, N, S) -> S > 100 | S = 0.
       constraint denial: R(X, X) -> false.
       not_null R[1].
       query q1(X): exists Y. R(X, Y) & !S(X, Y).
       query q2: forall X. (!Emp(X, X, X) | isnull(X)).
       query q3(X): exists Y. R(X, Y) & Y > X + 2.
       |})

let test_emit_values () =
  Alcotest.(check string) "null" "null" (Lang.Emit.value Value.null);
  Alcotest.(check string) "int" "-3" (Lang.Emit.value (Value.int (-3)));
  Alcotest.(check string) "bare" "abc" (Lang.Emit.value (Value.str "abc"));
  Alcotest.(check string) "keyword quoted" "\"query\"" (Lang.Emit.value (Value.str "query"));
  Alcotest.(check string) "capitalized quoted" "\"Ann\"" (Lang.Emit.value (Value.str "Ann"));
  Alcotest.(check string) "string null quoted" "\"null\"" (Lang.Emit.value (Value.str "null"));
  Alcotest.(check bool) "lowercase relation rejected" true
    (try
       ignore (Lang.Emit.fact (Relational.Atom.make "p" [ Value.int 1 ]));
       false
     with Invalid_argument _ -> true)

let test_emit_repair_is_consistent_file () =
  (* the CLI --save behaviour: an emitted repair re-checks as consistent *)
  let l = load example15_text in
  let reps = Repair.Enumerate.repairs l.Load.instance l.Load.ics in
  List.iter
    (fun r ->
      match Load.of_string (Lang.Emit.file ~ics:l.Load.ics r) with
      | Error m -> Alcotest.failf "reload: %s" m
      | Ok l' ->
          Alcotest.(check bool) "saved repair consistent" true
            (Semantics.Nullsat.consistent l'.Load.instance l'.Load.ics))
    reps

let () =
  Alcotest.run "lang"
    [
      ( "parser",
        [
          Alcotest.test_case "example 15 file" `Quick test_example15_file;
          Alcotest.test_case "values" `Quick test_null_and_types;
          Alcotest.test_case "constraint shapes" `Quick test_constraint_shapes;
          Alcotest.test_case "query formulas" `Quick test_query_formulas;
          Alcotest.test_case "errors" `Quick test_cases;
          Alcotest.test_case "example 19 round trip" `Quick test_roundtrip_paper_scenarios;
          Alcotest.test_case "comments" `Quick test_comments_and_whitespace;
          Alcotest.test_case "lexer edges" `Quick test_lexer_edges;
          Alcotest.test_case "query comparisons" `Quick test_query_comparisons;
          Alcotest.test_case "emit roundtrip" `Quick test_emit_roundtrip;
          Alcotest.test_case "emit values" `Quick test_emit_values;
          Alcotest.test_case "emit repairs" `Quick test_emit_repair_is_consistent_file;
          Alcotest.test_case "oracle: files" `Quick test_oracle_files;
          Alcotest.test_case "oracle: workloads" `Quick test_oracle_workloads;
          Alcotest.test_case "oracle: fuzz sources" `Quick test_oracle_fuzz;
          Alcotest.test_case "load words" `Quick test_load_words;
        ] );
    ]
