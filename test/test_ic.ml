(* Tests for the constraint language: form (1), classification,
   relevant attributes (Definition 2), dependency graphs (Definition 1). *)

module Term = Ic.Term
module Patom = Ic.Patom
module Builtin = Ic.Builtin
module Constr = Ic.Constr
module Classify = Ic.Classify
module Relevant = Ic.Relevant
module Depgraph = Ic.Depgraph
module Builder = Ic.Builder

let v = Term.var
let atom p ts = Patom.make p ts

(* ------------------------------------------------------------------ *)
(* Construction and validation *)

let test_generic_validation () =
  Alcotest.check_raises "empty antecedent"
    (Invalid_argument "Constr.generic: empty antecedent (m >= 1 required)")
    (fun () -> ignore (Constr.generic ~ante:[] ()));
  (* phi variable not in antecedent *)
  Alcotest.(check bool) "phi var escape" true
    (try
       ignore
         (Constr.generic
            ~ante:[ atom "P" [ v "x" ] ]
            ~phi:[ Builtin.cmp Builtin.Gt (Builtin.evar "w") (Builtin.eint 0) ]
            ());
       false
     with Invalid_argument _ -> true);
  (* null constant forbidden *)
  Alcotest.(check bool) "null constant rejected" true
    (try
       ignore
         (Constr.generic ~ante:[ atom "P" [ Term.const Relational.Value.null ] ] ());
       false
     with Invalid_argument _ -> true);
  (* shared existential variables between consequent atoms *)
  Alcotest.(check bool) "shared existential rejected" true
    (try
       ignore
         (Constr.generic
            ~ante:[ atom "P" [ v "x" ] ]
            ~cons:[ atom "Q" [ v "x"; v "z" ]; atom "R" [ v "z" ] ]
            ());
       false
     with Invalid_argument _ -> true)

let test_vars () =
  match
    Constr.generic
      ~ante:[ atom "P" [ v "x"; v "y" ] ]
      ~cons:[ atom "Q" [ v "x"; v "z" ] ]
      ()
  with
  | Constr.Generic g ->
      Alcotest.(check (list string)) "universal" [ "x"; "y" ] (Constr.universal_vars g);
      Alcotest.(check (list string)) "existential" [ "z" ] (Constr.existential_vars g)
  | Constr.NotNull _ -> Alcotest.fail "expected generic"

let test_not_null_range () =
  Alcotest.check_raises "position out of range"
    (Invalid_argument "Constr.not_null: position 3 out of range 1..2") (fun () ->
      ignore (Constr.not_null ~pred:"P" ~arity:2 ~pos:3 ()))

(* ------------------------------------------------------------------ *)
(* Classification (Example 1 and friends) *)

(* Example 1(a): P(x,y) /\ R(y,z,w) -> S(x) \/ z <> 2 \/ w <= y  (universal) *)
let ex1a =
  Constr.generic
    ~ante:[ atom "P" [ v "x"; v "y" ]; atom "R" [ v "y"; v "z"; v "w" ] ]
    ~cons:[ atom "S" [ v "x" ] ]
    ~phi:
      [
        Builtin.cmp Builtin.Neq (Builtin.evar "z") (Builtin.eint 2);
        Builtin.cmp Builtin.Leq (Builtin.evar "w") (Builtin.evar "y");
      ]
    ()

(* Example 1(b): P(x,y) -> exists z. R(x,y,z)  (referential) *)
let ex1b =
  Constr.generic
    ~ante:[ atom "P" [ v "x"; v "y" ] ]
    ~cons:[ atom "R" [ v "x"; v "y"; v "z" ] ]
    ()

let test_classify_examples () =
  Alcotest.(check bool) "1(a) UIC" true (Classify.is_uic ex1a);
  Alcotest.(check bool) "1(b) RIC" true (Classify.is_ric ex1b);
  Alcotest.(check bool) "NNC" true
    (Classify.is_nnc (Constr.not_null ~pred:"P" ~arity:2 ~pos:1 ()));
  let denial = Builder.denial [ atom "P" [ v "x" ]; atom "Q" [ v "x" ] ] in
  Alcotest.(check bool) "denial is denial" true (Classify.is_denial denial);
  Alcotest.(check bool) "denial is UIC" true (Classify.is_uic denial);
  let chk =
    Builder.check
      (atom "Emp" [ v "i"; v "n"; v "s" ])
      [ Builtin.cmp Builtin.Gt (Builtin.evar "s") (Builtin.eint 100) ]
  in
  Alcotest.(check bool) "check is check" true (Classify.is_check chk)

let test_classify_general_existential () =
  (* two antecedent atoms with an existential consequent: not form (3) *)
  let ic =
    Constr.generic
      ~ante:[ atom "P1" [ v "x"; v "y" ]; atom "P2" [ v "y"; v "u" ] ]
      ~cons:[ atom "Q" [ v "x"; v "u"; v "z" ] ]
      ()
  in
  Alcotest.(check bool) "general existential" true
    (Classify.classify ic = Classify.GeneralExistential);
  Alcotest.(check bool) "not supported by repair program" true
    (Result.is_error (Classify.supported_by_repair_program [ ic ]))

let test_builder_fd_key () =
  (* Example 19 key: R(x,y), R(x,z) -> y = z *)
  let fds = Builder.key ~pred:"R" ~arity:2 ~key:[ 1 ] () in
  Alcotest.(check int) "one FD" 1 (List.length fds);
  Alcotest.(check bool) "FD is UIC" true (Classify.is_uic (List.hd fds))

let test_builder_fk () =
  let fk =
    Builder.foreign_key ~child:"S" ~child_arity:2 ~child_cols:[ 2 ] ~parent:"R"
      ~parent_arity:2 ~parent_cols:[ 1 ] ()
  in
  Alcotest.(check bool) "fk is RIC" true (Classify.is_ric fk);
  let full =
    Builder.inclusion ~from_pred:"S" ~from_arity:1 ~from_cols:[ 1 ] ~to_pred:"T"
      ~to_arity:1 ~to_cols:[ 1 ] ()
  in
  Alcotest.(check bool) "full inclusion is UIC" true (Classify.is_uic full)

(* ------------------------------------------------------------------ *)
(* Relevant attributes (Definition 2) *)

let check_attrs name ic expected =
  let attrs = Relevant.attributes ic in
  Alcotest.(check (list (pair string int))) name expected attrs

(* Example 10: psi : P(x,y,z) -> R(x,y); A = {P[1], P[2], R[1], R[2]} *)
let test_relevant_example10_psi () =
  let psi =
    Constr.generic
      ~ante:[ atom "P" [ v "x"; v "y"; v "z" ] ]
      ~cons:[ atom "R" [ v "x"; v "y" ] ]
      ()
  in
  check_attrs "A(psi)" psi [ ("P", 1); ("P", 2); ("R", 1); ("R", 2) ]

(* Example 10: gamma : P(x,y,z) /\ R(z,w) -> exists v. R(x,v) \/ w > 3;
   A = {P[1], R[1], P[3], R[2]} *)
let test_relevant_example10_gamma () =
  let gamma =
    Constr.generic
      ~ante:[ atom "P" [ v "x"; v "y"; v "z" ]; atom "R" [ v "z"; v "w" ] ]
      ~cons:[ atom "R" [ v "x"; v "vv" ] ]
      ~phi:[ Builtin.cmp Builtin.Gt (Builtin.evar "w") (Builtin.eint 3) ]
      ()
  in
  check_attrs "A(gamma)" gamma [ ("P", 1); ("P", 3); ("R", 1); ("R", 2) ]

(* Example 8: Person(x,y,z,w) /\ Person(z,s,t,u) -> u > w + 15;
   relevant attributes: Person[1], Person[3], Person[4]. *)
let test_relevant_example8 () =
  let ic =
    Constr.generic
      ~ante:
        [
          atom "Person" [ v "x"; v "y"; v "z"; v "w" ];
          atom "Person" [ v "z"; v "s"; v "t"; v "u" ];
        ]
      ~phi:
        [
          Builtin.cmp Builtin.Gt (Builtin.evar "u")
            (Builtin.shift (Builtin.evar "w") 15);
        ]
      ()
  in
  check_attrs "A(Example 8)" ic [ ("Person", 1); ("Person", 3); ("Person", 4) ]

(* Example 13: P(x,y) -> exists z. Q(x,z,z); A = {P[1], Q[1], Q[2], Q[3]} *)
let test_relevant_example13 () =
  let ic =
    Constr.generic
      ~ante:[ atom "P" [ v "x"; v "y" ] ]
      ~cons:[ atom "Q" [ v "x"; v "z"; v "z" ] ]
      ()
  in
  check_attrs "A(Example 13)" ic [ ("P", 1); ("Q", 1); ("Q", 2); ("Q", 3) ]

(* Constants are always relevant. *)
let test_relevant_constants () =
  let ic =
    Constr.generic
      ~ante:[ atom "P" [ v "x"; Term.int 3 ] ]
      ~cons:[ atom "R" [ v "x" ] ]
      ()
  in
  check_attrs "constants relevant" ic [ ("P", 1); ("P", 2); ("R", 1) ]

(* A denial with no joins or constants has no relevant attributes. *)
let test_relevant_empty () =
  let ic = Builder.denial [ atom "P" [ v "x"; v "y" ] ] in
  check_attrs "denial: none" ic [];
  Alcotest.(check (list (pair string (list int)))) "positions keep pred"
    [ ("P", []) ] (Relevant.positions ic)

let test_relevant_universal_vars () =
  match ex1a with
  | Constr.Generic g ->
      Alcotest.(check (list string)) "IsNull candidates"
        [ "x"; "y"; "z"; "w" ]
        (Relevant.relevant_universal_vars g)
  | Constr.NotNull _ -> Alcotest.fail "generic expected"

let test_project_atom () =
  let psi =
    Constr.generic
      ~ante:[ atom "P" [ v "x"; v "y"; v "z" ] ]
      ~cons:[ atom "R" [ v "x"; v "y" ] ]
      ()
  in
  match psi with
  | Constr.Generic g ->
      let p = Relevant.project_atom psi (List.hd g.Constr.ante) in
      Alcotest.(check int) "P^A arity" 2 (Patom.arity p);
      Alcotest.(check (list string)) "P^A vars" [ "x"; "y" ] (Patom.vars p)
  | Constr.NotNull _ -> Alcotest.fail "generic expected"

(* ------------------------------------------------------------------ *)
(* Dependency graph (Definition 1, Examples 2-3, 24) *)

(* Example 2: ic1 : S(x) -> Q(x); ic2 : Q(x) -> R(x); ic3 : Q(x) -> ex y T(x,y) *)
let ic1 = Constr.generic ~ante:[ atom "S" [ v "x" ] ] ~cons:[ atom "Q" [ v "x" ] ] ()
let ic2 = Constr.generic ~ante:[ atom "Q" [ v "x" ] ] ~cons:[ atom "R" [ v "x" ] ] ()

let ic3 =
  Constr.generic ~ante:[ atom "Q" [ v "x" ] ] ~cons:[ atom "T" [ v "x"; v "y" ] ] ()

(* Example 3 addition: ic4 : T(x,y) -> R(y) *)
let ic4 =
  Constr.generic ~ante:[ atom "T" [ v "x"; v "y" ] ] ~cons:[ atom "R" [ v "y" ] ] ()

let test_depgraph_example2 () =
  let g = Depgraph.build [ ic1; ic2; ic3 ] in
  Alcotest.(check (list string)) "vertices" [ "Q"; "R"; "S"; "T" ]
    (Depgraph.vertices g);
  Alcotest.(check bool) "S->Q" true (Depgraph.has_edge g "S" "Q");
  Alcotest.(check bool) "Q->R" true (Depgraph.has_edge g "Q" "R");
  Alcotest.(check bool) "Q->T" true (Depgraph.has_edge g "Q" "T");
  Alcotest.(check bool) "no R->Q" false (Depgraph.has_edge g "R" "Q");
  Alcotest.(check int) "3 edges" 3 (List.length (Depgraph.edges g))

let test_contracted_example3 () =
  (* Without ic4: components {Q,R,S} and {T}; acyclic. *)
  let c = Depgraph.contract [ ic1; ic2; ic3 ] in
  Alcotest.(check int) "two component vertices" 2 (List.length c.Depgraph.cvertices);
  Alcotest.(check bool) "QRS merged" true
    (List.mem [ "Q"; "R"; "S" ] c.Depgraph.cvertices);
  Alcotest.(check bool) "T alone" true (List.mem [ "T" ] c.Depgraph.cvertices);
  Alcotest.(check bool) "RIC-acyclic" true (Depgraph.is_ric_acyclic [ ic1; ic2; ic3 ]);
  (* With ic4: all predicates merge; the RIC edge becomes a self-loop. *)
  let c' = Depgraph.contract [ ic1; ic2; ic3; ic4 ] in
  Alcotest.(check int) "single component" 1 (List.length c'.Depgraph.cvertices);
  Alcotest.(check bool) "not RIC-acyclic" false
    (Depgraph.is_ric_acyclic [ ic1; ic2; ic3; ic4 ]);
  Alcotest.(check bool) "cycle reported" true
    (Option.is_some (Depgraph.ric_cycle [ ic1; ic2; ic3; ic4 ]))

let test_uics_always_acyclic () =
  (* "As expected, a set of UICs is always RIC-acyclic", even a cyclic one. *)
  let u1 = Constr.generic ~ante:[ atom "P" [ v "x" ] ] ~cons:[ atom "Q" [ v "x" ] ] () in
  let u2 = Constr.generic ~ante:[ atom "Q" [ v "x" ] ] ~cons:[ atom "P" [ v "x" ] ] () in
  Alcotest.(check bool) "UIC cycle is fine" true (Depgraph.is_ric_acyclic [ u1; u2 ])

let test_ric_cycle_example18 () =
  (* Example 18: P(x,y) -> T(x) and T(x) -> exists y. P(y,x): cyclic. *)
  let uic =
    Constr.generic ~ante:[ atom "P" [ v "x"; v "y" ] ] ~cons:[ atom "T" [ v "x" ] ] ()
  in
  let ric =
    Constr.generic ~ante:[ atom "T" [ v "x" ] ] ~cons:[ atom "P" [ v "y"; v "x" ] ] ()
  in
  Alcotest.(check bool) "cyclic" false (Depgraph.is_ric_acyclic [ uic; ric ])

let test_longer_ric_cycle () =
  (* a three-component RIC cycle: A -RIC-> B -RIC-> C -RIC-> A *)
  let ric p q =
    Constr.generic ~ante:[ atom p [ v "x" ] ] ~cons:[ atom q [ v "x"; v "z" ] ] ()
  in
  let uic p q =
    Constr.generic ~ante:[ atom p [ v "x"; v "y" ] ] ~cons:[ atom q [ v "x" ] ] ()
  in
  (* A(x) -> B2(x,z); B2 collapses to B via UIC; B(x) -> C2(x,z); ... *)
  let ics =
    [
      ric "A" "B2"; uic "B2" "B";
      ric "B" "C2"; uic "C2" "C";
      ric "C" "A2"; uic "A2" "A";
    ]
  in
  (match Depgraph.ric_cycle ics with
  | None -> Alcotest.fail "expected a cycle"
  | Some cycle ->
      Alcotest.(check bool) "cycle of length >= 3" true (List.length cycle >= 3));
  (* removing one RIC breaks it *)
  let acyclic = List.filter (fun ic -> not (Constr.equal ic (ric "C" "A2"))) ics in
  Alcotest.(check bool) "acyclic without the closing RIC" true
    (Depgraph.is_ric_acyclic acyclic)

let test_nnc_no_edges () =
  let nnc = Constr.not_null ~pred:"P" ~arity:2 ~pos:1 () in
  let g = Depgraph.build [ nnc ] in
  Alcotest.(check int) "no edges" 0 (List.length (Depgraph.edges g));
  Alcotest.(check (list string)) "vertex P" [ "P" ] (Depgraph.vertices g)

(* ------------------------------------------------------------------ *)
(* Non-conflict condition (Section 4 assumption, Example 20) *)

let test_non_conflicting () =
  (* Example 20: P(x) -> exists y. Q(x,y) with NOT NULL on Q[2]. *)
  let ric =
    Constr.generic ~ante:[ atom "P" [ v "x" ] ] ~cons:[ atom "Q" [ v "x"; v "y" ] ] ()
  in
  let nnc_bad = Constr.not_null ~pred:"Q" ~arity:2 ~pos:2 () in
  let nnc_ok = Constr.not_null ~pred:"Q" ~arity:2 ~pos:1 () in
  Alcotest.(check bool) "conflict detected" true
    (Result.is_error (Builder.non_conflicting [ ric; nnc_bad ]));
  Alcotest.(check bool) "no conflict on universal position" true
    (Result.is_ok (Builder.non_conflicting [ ric; nnc_ok ]));
  Alcotest.(check bool) "keys+fk+checks always ok (Example 19)" true
    (Result.is_ok
       (Builder.non_conflicting
          (Builder.key ~pred:"R" ~arity:2 ~key:[ 1 ] ()
          @ [
              Builder.foreign_key ~child:"S" ~child_arity:2 ~child_cols:[ 2 ]
                ~parent:"R" ~parent_arity:2 ~parent_cols:[ 1 ] ();
              Constr.not_null ~pred:"R" ~arity:2 ~pos:1 ();
            ])))

(* ------------------------------------------------------------------ *)
(* Builtin evaluation *)

let test_builtin_eval () =
  let lookup = function
    | "x" -> Relational.Value.int 10
    | "y" -> Relational.Value.int 20
    | "n" -> Relational.Value.null
    | "s" -> Relational.Value.str "abc"
    | _ -> raise Not_found
  in
  let t b = Builtin.eval lookup b in
  Alcotest.(check bool) "10 < 20" true
    (t (Builtin.cmp Builtin.Lt (Builtin.evar "x") (Builtin.evar "y")));
  Alcotest.(check bool) "20 > 10+15 false" false
    (t (Builtin.cmp Builtin.Gt (Builtin.evar "y") (Builtin.shift (Builtin.evar "x") 15)));
  Alcotest.(check bool) "null = null (constant semantics)" true
    (t (Builtin.eq (Term.var "n") (Term.var "n")));
  Alcotest.(check bool) "null order comparison false" false
    (t (Builtin.cmp Builtin.Lt (Builtin.evar "n") (Builtin.evar "x")));
  Alcotest.(check bool) "string order" true
    (t (Builtin.cmp Builtin.Lt (Builtin.evar "s") (Builtin.econst (Relational.Value.str "abd"))));
  Alcotest.(check bool) "false atom" false (t Builtin.False);
  (* an offset folds into an integer on either side; on a string or null
     side the comparison is false, and so is its negation *)
  let ev x = Builtin.evar x and sh x k = Builtin.shift (Builtin.evar x) k in
  Alcotest.(check bool) "10+10 = 20" true (t (Builtin.cmp Builtin.Eq (sh "x" 10) (ev "y")));
  Alcotest.(check bool) "10 = 20-10" true (t (Builtin.cmp Builtin.Eq (ev "x") (sh "y" (-10))));
  List.iter
    (fun (name, a, b) ->
      List.iter
        (fun op ->
          Alcotest.(check bool) (name ^ " classical") false (t (Builtin.cmp op a b));
          Alcotest.(check bool) (name ^ " three-valued") true
            (Builtin.eval3 lookup (Builtin.cmp op a b) = None))
        Builtin.[ Eq; Neq; Lt; Geq ])
    [
      ("s = s+1", ev "s", sh "s" 1);
      ("s+1 = s", sh "s" 1, ev "s");
      ("x = n-1", ev "x", sh "n" (-1));
      ("n+1 = x", sh "n" 1, ev "x");
    ];
  (* three-valued *)
  Alcotest.(check bool) "eval3 null -> unknown" true
    (Builtin.eval3 lookup (Builtin.eq (Term.var "n") (Term.var "x")) = None);
  Alcotest.(check bool) "eval3 10+10 = 20" true
    (Builtin.eval3 lookup (Builtin.cmp Builtin.Eq (sh "x" 10) (ev "y")) = Some true)

let test_builtin_negate () =
  let b = Builtin.cmp Builtin.Lt (Builtin.evar "x") (Builtin.evar "y") in
  let lookup = function
    | "x" -> Relational.Value.int 1
    | "y" -> Relational.Value.int 2
    | _ -> raise Not_found
  in
  Alcotest.(check bool) "negation flips" true
    (Builtin.eval lookup b <> Builtin.eval lookup (Builtin.negate b))

(* ------------------------------------------------------------------ *)
(* Properties *)

let op_gen =
  QCheck.Gen.oneofl
    Builtin.[ Eq; Neq; Lt; Leq; Gt; Geq ]

let value_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Relational.Value.null);
        (3, map Relational.Value.int (int_range (-5) 5));
        (2, map (fun c -> Relational.Value.str (String.make 1 c)) (char_range 'a' 'c'));
      ])

let prop_negate_involutive =
  QCheck.Test.make ~name:"negate involutive on comparisons" ~count:200
    (QCheck.make op_gen) (fun op ->
      let b = Builtin.cmp op (Builtin.evar "x") (Builtin.evar "y") in
      Builtin.equal b (Builtin.negate (Builtin.negate b)))

let prop_negate_complements =
  QCheck.Test.make ~name:"b xor (negate b) under any assignment" ~count:500
    (QCheck.make QCheck.Gen.(triple op_gen value_gen value_gen))
    (fun (op, vx, vy) ->
      let lookup = function "x" -> vx | "y" -> vy | _ -> raise Not_found in
      let b = Builtin.cmp op (Builtin.evar "x") (Builtin.evar "y") in
      (* classical evaluation is two-valued, so negation complements except
         that order comparisons involving null or mixed kinds are false on
         both sides *)
      let pos = Builtin.eval lookup b and neg = Builtin.eval lookup (Builtin.negate b) in
      let same_kind =
        match vx, vy with
        | Relational.Value.Int _, Relational.Value.Int _ -> true
        | Relational.Value.Str _, Relational.Value.Str _ -> true
        | _ -> (match op with Builtin.Eq | Builtin.Neq -> Relational.Value.comparable vx vy | _ -> false)
      in
      if same_kind then pos <> neg else true)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ic"
    [
      ( "constr",
        [
          Alcotest.test_case "validation" `Quick test_generic_validation;
          Alcotest.test_case "vars" `Quick test_vars;
          Alcotest.test_case "not_null range" `Quick test_not_null_range;
        ] );
      ( "classify",
        [
          Alcotest.test_case "examples" `Quick test_classify_examples;
          Alcotest.test_case "general existential" `Quick
            test_classify_general_existential;
          Alcotest.test_case "fd/key builder" `Quick test_builder_fd_key;
          Alcotest.test_case "fk builder" `Quick test_builder_fk;
        ] );
      ( "relevant",
        [
          Alcotest.test_case "example 10 psi" `Quick test_relevant_example10_psi;
          Alcotest.test_case "example 10 gamma" `Quick test_relevant_example10_gamma;
          Alcotest.test_case "example 8" `Quick test_relevant_example8;
          Alcotest.test_case "example 13" `Quick test_relevant_example13;
          Alcotest.test_case "constants" `Quick test_relevant_constants;
          Alcotest.test_case "empty" `Quick test_relevant_empty;
          Alcotest.test_case "relevant universal vars" `Quick
            test_relevant_universal_vars;
          Alcotest.test_case "project atom" `Quick test_project_atom;
        ] );
      ( "depgraph",
        [
          Alcotest.test_case "example 2" `Quick test_depgraph_example2;
          Alcotest.test_case "example 3 contracted" `Quick test_contracted_example3;
          Alcotest.test_case "UICs acyclic" `Quick test_uics_always_acyclic;
          Alcotest.test_case "example 18 cyclic" `Quick test_ric_cycle_example18;
          Alcotest.test_case "NNC no edges" `Quick test_nnc_no_edges;
          Alcotest.test_case "three-hop RIC cycle" `Quick test_longer_ric_cycle;
        ] );
      ( "non-conflict",
        [ Alcotest.test_case "example 20" `Quick test_non_conflicting ] );
      ( "builtin",
        [
          Alcotest.test_case "eval" `Quick test_builtin_eval;
          Alcotest.test_case "negate" `Quick test_builtin_negate;
        ] );
      ("properties", qcheck [ prop_negate_involutive; prop_negate_complements ]);
    ]
