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

let test_errors_simple () =
  Alcotest.(check bool) "arity mismatch rejected" true
    (Result.is_error (Load.of_string "relation P(a).\nP(1, 2)."));
  Alcotest.(check bool) "parse error rejected" true
    (Result.is_error (Load.of_string "constraint : ->."));
  Alcotest.(check bool) "null in constraint rejected" true
    (Result.is_error (Load.of_string "constraint c: P(X) -> Q(null)."));
  Alcotest.(check bool) "unknown not_null relation" true
    (Result.is_error (Load.of_string "not_null R[1]."));
  Alcotest.(check bool) "not_null out of range" true
    (Result.is_error (Load.of_string "relation R(a).\nnot_null R[4]."));
  Alcotest.(check bool) "bad head var" true
    (Result.is_error (Load.of_string "relation P(a).\nquery q(X): P(Y)."));
  Alcotest.(check bool) "unknown query relation" true
    (Result.is_error (Load.of_string "query q(X): P(X)."));
  Alcotest.(check bool) "unterminated string" true
    (Result.is_error (Load.of_string "P(\"abc)."));
  (* the input is lexed as it is parsed, but a lexical error still wins
     over a parse error earlier in the file *)
  Alcotest.(check (result reject string)) "lexical error after a parse error"
    (Error "3:3: lexical error: unexpected character '$'")
    (Result.map (fun _ -> ()) (Load.of_string "P(1,.\nQ(2).\nR($).\n"));
  Alcotest.(check (result reject string)) "integer literal past max_int"
    (Error "2:3: lexical error: integer literal 99999999999999999999 out of range")
    (Result.map (fun _ -> ()) (Load.of_string "P(1).\nR(99999999999999999999).\n"));
  Alcotest.(check (result reject string)) "parse error alone"
    (Error "1:5: parse error: expected a constant (found '.')")
    (Result.map (fun _ -> ()) (Load.of_string "P(1,.\nQ(2).\n"))

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
          Alcotest.test_case "errors" `Quick test_errors_simple;
          Alcotest.test_case "example 19 round trip" `Quick test_roundtrip_paper_scenarios;
          Alcotest.test_case "comments" `Quick test_comments_and_whitespace;
          Alcotest.test_case "lexer edges" `Quick test_lexer_edges;
          Alcotest.test_case "query comparisons" `Quick test_query_comparisons;
          Alcotest.test_case "emit roundtrip" `Quick test_emit_roundtrip;
          Alcotest.test_case "emit values" `Quick test_emit_values;
          Alcotest.test_case "emit repairs" `Quick test_emit_repair_is_consistent_file;
        ] );
    ]
