(* Tests for query evaluation over nulls and consistent query answering
   (Definition 8, Theorems 2-3). *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Instance = Relational.Instance
module Term = Ic.Term
module Patom = Ic.Patom
module Builtin = Ic.Builtin
module Constr = Ic.Constr
module Q = Query.Qsyntax
module Qeval = Query.Qeval
module Qsafe = Query.Qsafe
module Cqa = Query.Cqa

let v = Term.var
let atom p ts = Patom.make p ts
let vn = Value.null
let vs = Value.str
let vi = Value.int

let tuple_set = Alcotest.testable
    (fun ppf s -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") Tuple.pp) (Tuple.Set.elements s))
    Tuple.Set.equal

let set_of l = Tuple.Set.of_list (List.map Tuple.make l)

(* ------------------------------------------------------------------ *)
(* Evaluation *)

let d0 =
  Instance.of_list
    [
      ("Student", [ vi 21; vs "Ann" ]);
      ("Student", [ vi 45; vs "Paul" ]);
      ("Student", [ vi 34; vn ]);
      ("Course", [ vi 21; vs "C15" ]);
    ]

let test_atom_query () =
  let q = Q.make ~head:[ "id"; "name" ] (Q.Atom (atom "Student" [ v "id"; v "name" ])) in
  Alcotest.check tuple_set "all students"
    (set_of [ [ vi 21; vs "Ann" ]; [ vi 45; vs "Paul" ]; [ vi 34; vn ] ])
    (Qeval.answers d0 q)

let test_projection_query () =
  let q = Q.make ~head:[ "id" ] (Q.Exists ([ "name" ], Q.Atom (atom "Student" [ v "id"; v "name" ]))) in
  Alcotest.check tuple_set "student ids"
    (set_of [ [ vi 21 ]; [ vi 45 ]; [ vi 34 ] ])
    (Qeval.answers d0 q)

let test_join_query () =
  let q =
    Q.make ~head:[ "name" ]
      (Q.Exists
         ( [ "id"; "code" ],
           Q.And
             ( Q.Atom (atom "Student" [ v "id"; v "name" ]),
               Q.Atom (atom "Course" [ v "id"; v "code" ]) ) ))
  in
  Alcotest.check tuple_set "enrolled names" (set_of [ [ vs "Ann" ] ]) (Qeval.answers d0 q)

let test_negation_query () =
  let q =
    Q.make ~head:[ "id" ]
      (Q.Exists
         ( [ "name" ],
           Q.And
             ( Q.Atom (atom "Student" [ v "id"; v "name" ]),
               Q.Not (Q.Exists ([ "code" ], Q.Atom (atom "Course" [ v "id"; v "code" ]))) ) ))
  in
  Alcotest.check tuple_set "students without courses"
    (set_of [ [ vi 45 ]; [ vi 34 ] ])
    (Qeval.answers d0 q)

let test_isnull_query () =
  let q =
    Q.make ~head:[ "id" ]
      (Q.Exists
         ( [ "name" ],
           Q.And
             ( Q.Atom (atom "Student" [ v "id"; v "name" ]),
               Q.IsNull (v "name") ) ))
  in
  Alcotest.check tuple_set "unknown names" (set_of [ [ vi 34 ] ]) (Qeval.answers d0 q)

let test_comparison_semantics () =
  let d = Instance.of_list [ ("P", [ vi 1; vn ]); ("P", [ vi 2; vi 5 ]) ] in
  let q sem =
    Qeval.answers ~semantics:sem d
      (Q.make ~head:[ "x" ]
         (Q.Exists
            ( [ "y" ],
              Q.And
                ( Q.Atom (atom "P" [ v "x"; v "y" ]),
                  Q.Builtin (Builtin.cmp Builtin.Lt (Builtin.evar "y") (Builtin.eint 10)) ) )))
  in
  (* under both semantics null < 10 is not satisfied *)
  Alcotest.check tuple_set "null < 10 never holds (constant)" (set_of [ [ vi 2 ] ])
    (q Qeval.NullAsConstant);
  Alcotest.check tuple_set "null < 10 never holds (sql)" (set_of [ [ vi 2 ] ])
    (q Qeval.SqlLike);
  (* equality with null differs: as a constant null = null holds *)
  let eq_null sem =
    Qeval.answers ~semantics:sem d
      (Q.make ~head:[ "x" ]
         (Q.Exists
            ( [ "y"; "x2"; "y2" ],
              Q.And
                ( Q.And
                    ( Q.Atom (atom "P" [ v "x"; v "y" ]),
                      Q.Atom (atom "P" [ v "x2"; v "y2" ]) ),
                  Q.And
                    ( Q.Builtin (Builtin.eq (v "y") (v "y2")),
                      Q.Builtin (Builtin.neq (v "x") (v "x2")) ) ) )))
  in
  Alcotest.check tuple_set "no cross pair (constant)" Tuple.Set.empty
    (eq_null Qeval.NullAsConstant);
  Alcotest.check tuple_set "no cross pair (sql)" Tuple.Set.empty (eq_null Qeval.SqlLike)

let test_nullaware_semantics () =
  (* Example 12's lesson inverted: under the compatible semantics a null
     never joins, while as-a-constant it does *)
  let d = Instance.of_list [ ("P", [ vs "a"; vn ]); ("Q", [ vn ]); ("Q", [ vs "c" ]) ] in
  let join_query =
    Q.make ~head:[ "x" ]
      (Q.Exists
         ( [ "y" ],
           Q.And (Q.Atom (atom "P" [ v "x"; v "y" ]), Q.Atom (atom "Q" [ v "y" ])) ))
  in
  Alcotest.check tuple_set "null joins as a constant" (set_of [ [ vs "a" ] ])
    (Qeval.answers ~semantics:Qeval.NullAsConstant d join_query);
  Alcotest.check tuple_set "null never joins (compatible)" Tuple.Set.empty
    (Qeval.answers ~semantics:Qeval.NullAware d join_query);
  (* a null in a non-join position is still returned *)
  let all_p = Q.make ~head:[ "x"; "y" ] (Q.Atom (atom "P" [ v "x"; v "y" ])) in
  Alcotest.check tuple_set "null returned" (set_of [ [ vs "a"; vn ] ])
    (Qeval.answers ~semantics:Qeval.NullAware d all_p);
  (* self-join within one atom: repeated variable must be non-null *)
  let d2 = Instance.of_list [ ("R", [ vn; vn ]); ("R", [ vs "b"; vs "b" ]) ] in
  let diag = Q.make ~head:[ "x" ] (Q.Atom (atom "R" [ v "x"; v "x" ])) in
  Alcotest.check tuple_set "diagonal as constant" (set_of [ [ vn ]; [ vs "b" ] ])
    (Qeval.answers ~semantics:Qeval.NullAsConstant d2 diag);
  Alcotest.check tuple_set "diagonal compatible" (set_of [ [ vs "b" ] ])
    (Qeval.answers ~semantics:Qeval.NullAware d2 diag);
  (* isnull on a single-occurrence variable still works *)
  let isnull_q =
    Q.make ~head:[ "x" ]
      (Q.Exists ([ "y" ], Q.And (Q.Atom (atom "P" [ v "x"; v "y" ]), Q.IsNull (v "y"))))
  in
  Alcotest.check tuple_set "isnull sanctioned" (set_of [ [ vs "a" ] ])
    (Qeval.answers ~semantics:Qeval.NullAware d isnull_q);
  (* comparisons with null are unknown *)
  let cmp_q =
    Q.make ~head:[ "x" ]
      (Q.Exists
         ( [ "y" ],
           Q.And
             ( Q.Atom (atom "P" [ v "x"; v "y" ]),
               Q.Builtin (Builtin.eq (v "y") (v "y")) ) ))
  in
  Alcotest.check tuple_set "null = null unknown under compatible" Tuple.Set.empty
    (Qeval.answers ~semantics:Qeval.NullAware d cmp_q);
  Alcotest.check tuple_set "null = null holds as constant" (set_of [ [ vs "a" ] ])
    (Qeval.answers ~semantics:Qeval.NullAsConstant d cmp_q)

let test_forall () =
  let d = Instance.of_list [ ("P", [ vs "a" ]); ("P", [ vs "b" ]); ("Q", [ vs "a" ]); ("Q", [ vs "b" ]) ] in
  let subset =
    Q.make ~head:[]
      (Q.Forall ([ "x" ], Q.Or (Q.Not (Q.Atom (atom "P" [ v "x" ])), Q.Atom (atom "Q" [ v "x" ]))))
  in
  Alcotest.(check bool) "P subset Q" true (Qeval.boolean d subset);
  let d' = Instance.add (Relational.Atom.make "P" [ vs "c" ]) d in
  Alcotest.(check bool) "P not subset Q" false (Qeval.boolean d' subset)

let test_query_validation () =
  Alcotest.(check bool) "bound head var rejected" true
    (try
       ignore (Q.make ~head:[ "x" ] (Q.Exists ([ "x" ], Q.Atom (atom "P" [ v "x" ]))));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "missing head var rejected" true
    (try
       ignore (Q.make ~head:[ "zz" ] (Q.Atom (atom "P" [ v "x" ])));
       false
     with Invalid_argument _ -> true);
  (* conj/disj unit elements *)
  Alcotest.(check bool) "empty conj is true" true
    (Qeval.boolean Instance.empty (Q.make ~head:[] (Q.conj [])));
  Alcotest.(check bool) "empty disj is false" false
    (Qeval.boolean Instance.empty (Q.make ~head:[] (Q.disj [])))

let test_progcqa_compile_union () =
  (* a union query compiles to one rule per disjunct *)
  let names = Core.Annot.Names.create () in
  let q =
    Q.make ~head:[ "x" ]
      (Q.Or (Q.Atom (atom "P" [ v "x" ]), Q.Atom (atom "T" [ v "x" ])))
  in
  match Query.Progcqa.compile names q with
  | Ok rules -> Alcotest.(check int) "two rules" 2 (List.length rules)
  | Error m -> Alcotest.failf "compile: %s" m

let test_progcqa_unsafe_rejected () =
  let names = Core.Annot.Names.create () in
  (* head variable occurring only under negation *)
  let q = Q.make ~head:[ "x" ] (Q.Or (Q.Atom (atom "P" [ v "x" ]), Q.Not (Q.Atom (atom "T" [ v "x" ])))) in
  Alcotest.(check bool) "unsafe disjunct rejected" true
    (Result.is_error (Query.Progcqa.compile names q))

(* ------------------------------------------------------------------ *)
(* Safety *)

let test_safety () =
  let safe = Q.make ~head:[ "x" ] (Q.Atom (atom "P" [ v "x" ])) in
  Alcotest.(check bool) "atom query safe" true (Qsafe.is_safe safe);
  let unsafe_neg = Q.make ~head:[ "x" ] (Q.And (Q.Atom (atom "P" [ v "y" ]), Q.Not (Q.Atom (atom "Q" [ v "x" ])))) in
  ignore unsafe_neg;
  (* head var restricted only under negation: unsafe *)
  Alcotest.(check bool) "negated head var unsafe" false
    (Qsafe.is_safe (Q.make ~head:[ "x" ] (Q.Or (Q.Atom (atom "P" [ v "x" ]), Q.Builtin (Builtin.eq (v "x") (v "x"))))));
  let guarded_forall =
    Q.make ~head:[]
      (Q.Forall ([ "x" ], Q.Or (Q.Not (Q.Atom (atom "P" [ v "x" ])), Q.Atom (atom "Q" [ v "x" ]))))
  in
  Alcotest.(check bool) "guarded forall safe" true (Qsafe.is_safe guarded_forall)

(* ------------------------------------------------------------------ *)
(* CQA on Example 14/15 *)

let ex15 = Workload.Paperdb.example15

let student_query =
  Q.make ~head:[ "id"; "name" ] (Q.Atom (atom "Student" [ v "id"; v "name" ]))

let course_query =
  Q.make ~head:[ "id"; "code" ] (Q.Atom (atom "Course" [ v "id"; v "code" ]))

let run_cqa ?method_ q =
  match Cqa.consistent_answers ?method_ ex15.Workload.Paperdb.d ex15.Workload.Paperdb.ics q with
  | Ok o -> o
  | Error msg -> Alcotest.failf "cqa error: %s" msg

let test_cqa_students () =
  let o = run_cqa student_query in
  (* the original students are in every repair; Student(34, null) only in
     the insertion repair *)
  Alcotest.check tuple_set "consistent students"
    (set_of [ [ vi 21; vs "Ann" ]; [ vi 45; vs "Paul" ] ])
    o.Cqa.consistent;
  Alcotest.check tuple_set "possible students"
    (set_of [ [ vi 21; vs "Ann" ]; [ vi 45; vs "Paul" ]; [ vi 34; vn ] ])
    o.Cqa.possible;
  Alcotest.(check int) "two repairs" 2 o.Cqa.repair_count

let test_cqa_courses () =
  let o = run_cqa course_query in
  (* Course(34, C18) is deleted in one repair: not a consistent answer *)
  Alcotest.check tuple_set "consistent courses" (set_of [ [ vi 21; vs "C15" ] ])
    o.Cqa.consistent;
  Alcotest.check tuple_set "standard answers keep the dirty tuple"
    (set_of [ [ vi 21; vs "C15" ]; [ vi 34; vs "C18" ] ])
    o.Cqa.standard

let test_cqa_methods_agree () =
  List.iter
    (fun q ->
      let a = run_cqa ~method_:Cqa.ModelTheoretic q in
      let b = run_cqa ~method_:Cqa.LogicProgram q in
      Alcotest.check tuple_set "methods agree (consistent)" a.Cqa.consistent b.Cqa.consistent;
      Alcotest.check tuple_set "methods agree (possible)" a.Cqa.possible b.Cqa.possible)
    [ student_query; course_query ]

let test_certain_boolean () =
  (* "is there a student with id 21?" holds in every repair *)
  let q21 =
    Q.make ~head:[] (Q.Exists ([ "n" ], Q.Atom (atom "Student" [ Term.int 21; v "n" ])))
  in
  let q34 =
    Q.make ~head:[] (Q.Exists ([ "n" ], Q.Atom (atom "Student" [ Term.int 34; v "n" ])))
  in
  let certain q =
    match Cqa.certain ex15.Workload.Paperdb.d ex15.Workload.Paperdb.ics q with
    | Ok b -> b
    | Error m -> Alcotest.failf "certain: %s" m
  in
  Alcotest.(check bool) "student 21 certain" true (certain q21);
  Alcotest.(check bool) "student 34 uncertain" false (certain q34)

let test_cqa_consistent_database () =
  (* on a consistent database CQA = standard answers *)
  let d = Instance.of_list [ ("Course", [ vi 21; vs "C15" ]); ("Student", [ vi 21; vs "Ann" ]) ] in
  match Cqa.consistent_answers d ex15.Workload.Paperdb.ics course_query with
  | Error m -> Alcotest.failf "cqa: %s" m
  | Ok o ->
      Alcotest.check tuple_set "consistent = standard" o.Cqa.standard o.Cqa.consistent;
      Alcotest.(check int) "one repair" 1 o.Cqa.repair_count

(* Example 19 CQA: S(null, a) survives every repair; R tuples are uncertain *)
let test_cqa_example19 () =
  let ex = Workload.Paperdb.example19 in
  let qs = Q.make ~head:[ "u"; "x" ] (Q.Atom (atom "S" [ v "u"; v "x" ])) in
  let qr = Q.make ~head:[ "x"; "y" ] (Q.Atom (atom "R" [ v "x"; v "y" ])) in
  match
    ( Cqa.consistent_answers ex.Workload.Paperdb.d ex.Workload.Paperdb.ics qs,
      Cqa.consistent_answers ex.Workload.Paperdb.d ex.Workload.Paperdb.ics qr )
  with
  | Ok os, Ok orr ->
      Alcotest.check tuple_set "S(null,a) certain" (set_of [ [ vn; vs "a" ] ])
        os.Cqa.consistent;
      Alcotest.check tuple_set "no consistent R answers" Tuple.Set.empty
        orr.Cqa.consistent;
      Alcotest.(check int) "four repairs" 4 os.Cqa.repair_count
  | Error m, _ | _, Error m -> Alcotest.failf "cqa: %s" m

(* ------------------------------------------------------------------ *)
(* CQA by cautious reasoning (Progcqa) *)

let cautious_outcome d ics q =
  match Query.Progcqa.consistent_answers d ics q with
  | Ok o -> o
  | Error msg -> Alcotest.failf "progcqa: %s" msg

let test_cautious_students () =
  let o = cautious_outcome ex15.Workload.Paperdb.d ex15.Workload.Paperdb.ics student_query in
  Alcotest.check tuple_set "cautious students"
    (set_of [ [ vi 21; vs "Ann" ]; [ vi 45; vs "Paul" ] ])
    o.Query.Progcqa.consistent;
  Alcotest.check tuple_set "brave students"
    (set_of [ [ vi 21; vs "Ann" ]; [ vi 45; vs "Paul" ]; [ vi 34; vn ] ])
    o.Query.Progcqa.possible;
  Alcotest.(check int) "two stable models" 2 o.Query.Progcqa.stable_models

let test_cautious_negation () =
  (* students with no course: negation compiled to 'not ... tss' *)
  let q =
    Q.make ~head:[ "i" ]
      (Q.Exists
         ( [ "n" ],
           Q.And
             ( Q.Atom (atom "Student" [ v "i"; v "n" ]),
               Q.Not (Q.Exists ([ "c" ], Q.Atom (atom "Course" [ v "i"; v "c" ]))) ) ))
  in
  (* negated existential is outside the fragment *)
  Alcotest.(check bool) "negated exists rejected" true
    (Result.is_error
       (Query.Progcqa.consistent_answers ex15.Workload.Paperdb.d
          ex15.Workload.Paperdb.ics q));
  (* but direct atom negation is in the fragment *)
  let q2 =
    Q.make ~head:[ "i"; "n" ]
      (Q.And
         ( Q.Atom (atom "Student" [ v "i"; v "n" ]),
           Q.Not (Q.Atom (atom "Course" [ v "i"; Term.str "C15" ])) ))
  in
  let o = cautious_outcome ex15.Workload.Paperdb.d ex15.Workload.Paperdb.ics q2 in
  Alcotest.check tuple_set "students not in C15"
    (set_of [ [ vi 45; vs "Paul" ] ])
    o.Query.Progcqa.consistent

let test_cautious_isnull () =
  let q =
    Q.make ~head:[ "i" ]
      (Q.Exists
         ( [ "n" ],
           Q.And (Q.Atom (atom "Student" [ v "i"; v "n" ]), Q.IsNull (v "n")) ))
  in
  let o = cautious_outcome ex15.Workload.Paperdb.d ex15.Workload.Paperdb.ics q in
  (* Student(34, null) exists only in the insertion repair: possible, not
     consistent *)
  Alcotest.check tuple_set "not cautious" Tuple.Set.empty o.Query.Progcqa.consistent;
  Alcotest.check tuple_set "but brave" (set_of [ [ vi 34 ] ]) o.Query.Progcqa.possible

let test_cautious_rejects_cyclic () =
  let ics =
    [
      Constr.generic ~ante:[ atom "P" [ v "x"; v "y" ] ] ~cons:[ atom "T" [ v "x" ] ] ();
      Constr.generic ~ante:[ atom "T" [ v "x" ] ] ~cons:[ atom "P" [ v "x"; v "z" ] ] ();
    ]
  in
  let q = Q.make ~head:[ "x" ] (Q.Exists ([ "y" ], Q.Atom (atom "P" [ v "x"; v "y" ]))) in
  Alcotest.(check bool) "cyclic rejected" true
    (Result.is_error (Query.Progcqa.consistent_answers Instance.empty ics q))

let test_cautious_forall_rejected () =
  let q =
    Q.make ~head:[]
      (Q.Forall ([ "x" ], Q.Or (Q.Not (Q.Atom (atom "T" [ v "x" ])), Q.Atom (atom "T" [ v "x" ]))))
  in
  Alcotest.(check bool) "forall rejected" true
    (Result.is_error
       (Query.Progcqa.consistent_answers ex15.Workload.Paperdb.d
          ex15.Workload.Paperdb.ics q))

let test_cautious_certain () =
  let q21 =
    Q.make ~head:[] (Q.Exists ([ "n" ], Q.Atom (atom "Student" [ Term.int 21; v "n" ])))
  in
  match Query.Progcqa.certain ex15.Workload.Paperdb.d ex15.Workload.Paperdb.ics q21 with
  | Ok b -> Alcotest.(check bool) "certain via cautious reasoning" true b
  | Error m -> Alcotest.failf "certain: %s" m

let test_cautious_via_cqa_method () =
  match
    Cqa.consistent_answers ~method_:Cqa.CautiousProgram ex15.Workload.Paperdb.d
      ex15.Workload.Paperdb.ics course_query
  with
  | Error m -> Alcotest.failf "cqa: %s" m
  | Ok o ->
      Alcotest.check tuple_set "consistent courses via CautiousProgram"
        (set_of [ [ vi 21; vs "C15" ] ])
        o.Cqa.consistent

(* ------------------------------------------------------------------ *)
(* Effort budgets surface as errors, not exceptions *)

let test_cqa_budget () =
  let d =
    Instance.of_list (List.init 8 (fun i -> ("Course", [ vi i; vs "c" ])))
  in
  let q = Q.make ~head:[ "i"; "c" ] (Q.Atom (atom "Course" [ v "i"; v "c" ])) in
  (match
     Cqa.consistent_answers ~method_:Cqa.ModelTheoretic
       ~budget:(Budget.start (Budget.make ~max_states:3 ()))
       d ex15.Workload.Paperdb.ics q
   with
  | Error msg ->
      Alcotest.(check bool) "budget message" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected budget error");
  match
    Cqa.consistent_answers ~method_:Cqa.LogicProgram
      ~budget:(Budget.start (Budget.make ~max_decisions:2 ()))
      d ex15.Workload.Paperdb.ics q
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected solver budget error"

(* ------------------------------------------------------------------ *)
(* Properties *)

let value_gen =
  QCheck.Gen.(
    frequency
      [ (1, return Value.null); (4, map (fun c -> Value.str (String.make 1 c)) (char_range 'a' 'c')) ])

let inst_gen =
  QCheck.Gen.(
    let atom_gen =
      let* p, arity = oneofl [ ("P", 2); ("T", 1) ] in
      map (fun values -> Relational.Atom.make p values) (list_size (return arity) value_gen)
    in
    map Instance.of_atoms (list_size (int_range 0 5) atom_gen))

let scenario = [ Constr.generic ~ante:[ atom "P" [ v "x"; v "y" ] ] ~cons:[ atom "T" [ v "x" ] ] () ]

let pquery = Q.make ~head:[ "x" ] (Q.Exists ([ "y" ], Q.Atom (atom "P" [ v "x"; v "y" ])))

let prop_nullaware_agrees_nullfree =
  QCheck.Test.make ~name:"on null-free instances all query semantics agree" ~count:100
    (QCheck.make ~print:(Fmt.str "%a" Instance.pp_inline) inst_gen)
    (fun d ->
      let d = Instance.filter (fun a -> not (Relational.Atom.has_null a)) d in
      let a = Qeval.answers ~semantics:Qeval.NullAsConstant d pquery in
      let b = Qeval.answers ~semantics:Qeval.SqlLike d pquery in
      let c = Qeval.answers ~semantics:Qeval.NullAware d pquery in
      Tuple.Set.equal a b && Tuple.Set.equal a c)

(* Join-driven evaluation of factorizable bodies against the active-domain
   enumeration, rebuilt here on [Qeval.holds]: random conjunctions over P/T
   with shared variables, constants (one absent from every instance), a
   comparison and an IsNull; heads from none (a boolean query) to every
   free variable. *)
let factorizable_gen =
  QCheck.Gen.(
    let var = oneofl [ "x"; "y"; "z" ] in
    let term =
      frequency
        [ (5, map v var); (1, map Term.const (oneofl [ vs "a"; vs "d"; vn ])) ]
    in
    let patom =
      let* p, arity = oneofl [ ("P", 2); ("T", 1) ] in
      map (atom p) (list_size (return arity) term)
    in
    let* atoms = list_size (int_range 1 3) patom in
    let vars = List.sort_uniq String.compare (List.concat_map Patom.vars atoms) in
    let* extras =
      if vars = [] then return []
      else
        let* x = oneofl vars in
        let* y = oneofl vars in
        oneofl
          [
            [];
            [ Q.Builtin (Builtin.eq (v x) (v y)) ];
            [ Q.Builtin (Builtin.neq (v x) (Term.str "a")) ];
            [ Q.IsNull (v x) ];
          ]
    in
    let* head = shuffle_l vars in
    let* n = int_range 0 (List.length head) in
    let head = List.filteri (fun i _ -> i < n) head in
    let body =
      List.fold_left
        (fun f g -> Q.And (f, g))
        (Q.Atom (List.hd atoms))
        (List.map (fun a -> Q.Atom a) (List.tl atoms) @ extras)
    in
    let hidden = List.filter (fun x -> not (List.mem x head)) vars in
    return (Q.make ~head (if hidden = [] then body else Q.Exists (hidden, body))))

let enum_answers semantics d (q : Q.t) =
  let dom =
    List.sort_uniq Value.compare
      (Instance.active_domain d @ [ vs "a"; vs "d"; vn ])
  in
  let rec go theta = function
    | [] ->
        if Qeval.holds ~semantics d theta q.Q.body then
          [ Tuple.make (List.map (Semantics.Assign.lookup_exn theta) q.Q.head) ]
        else []
    | x :: rest ->
        List.concat_map
          (fun c -> go (Option.get (Semantics.Assign.bind theta x c)) rest)
          dom
  in
  Tuple.Set.of_list (go Semantics.Assign.empty q.Q.head)

let prop_join_answers_match_enum =
  QCheck.Test.make ~name:"factorizable answers = domain enumeration" ~count:400
    (QCheck.make
       ~print:(fun (d, q) -> Fmt.str "%a@ %a" Instance.pp_inline d Q.pp q)
       QCheck.Gen.(pair inst_gen factorizable_gen))
    (fun (d, q) ->
      Qsafe.factorizable q.Q.body
      && List.for_all
           (fun semantics ->
             Tuple.Set.equal (Qeval.answers ~semantics d q) (enum_answers semantics d q))
           [ Qeval.NullAsConstant; Qeval.SqlLike; Qeval.NullAware ])

(* The seeded witness test against the answers it decides membership of,
   under every semantics, for every head tuple over the instance's domain
   and the queries' constants. *)
let prop_witnessed_is_membership =
  QCheck.Test.make ~name:"witnessed = membership in the answers" ~count:400
    (QCheck.make
       ~print:(fun (d, q) -> Fmt.str "%a@ %a" Instance.pp_inline d Q.pp q)
       QCheck.Gen.(pair inst_gen factorizable_gen))
    (fun (d, q) ->
      let dom =
        List.sort_uniq Value.compare
          (Instance.active_domain d @ [ vs "a"; vs "d"; vn ])
      in
      let rec heads = function
        | 0 -> [ [] ]
        | n -> List.concat_map (fun t -> List.map (fun c -> c :: t) dom) (heads (n - 1))
      in
      List.for_all
        (fun semantics ->
          let answers = Qeval.answers ~semantics d q in
          let witnessed = Qeval.witnessed ~semantics d q in
          List.for_all
            (fun h ->
              let t = Tuple.make h in
              witnessed t = Tuple.Set.mem t answers)
            (heads (List.length q.Q.head)))
        [ Qeval.NullAsConstant; Qeval.SqlLike; Qeval.NullAware ])

(* Under [NullAware] a factorizable query takes the join too, not the
   active-domain enumeration: on 2k tuples, [exists y. S(x, y)] allocates
   at most twice its words under [NullAsConstant] (90,006 against 89,954;
   the enumeration allocated 32.8M).  Each semantics runs once uncounted,
   so the lazy indexes are built before either count. *)
let test_nullaware_join_allocation () =
  let w = Workload.Gen.scale_workload ~tuples:2000 () in
  let d = w.Workload.Gen.d in
  let q =
    Q.make ~head:[ "x" ] (Q.Exists ([ "y" ], Q.Atom (atom "S" [ v "x"; v "y" ])))
  in
  let words semantics =
    ignore (Qeval.answers ~semantics d q);
    snd (Alloc.allocated (fun () -> Qeval.answers ~semantics d q))
  in
  let constant = words Qeval.NullAsConstant and aware = words Qeval.NullAware in
  Alcotest.(check bool)
    (Printf.sprintf "NullAware %.0f words <= 2 x NullAsConstant %.0f words"
       aware constant)
    true
    (aware <= 2. *. constant)

(* The answers of a single-atom query with its head on the scanned
   relation's leading column come out of the join in [Tuple.compare]
   order: they fill an array that is checked in one pass and never
   sorted.  On 20k tuples (12k answers of S) that is the decoded tuple,
   the array's doublings and one trimmed copy: at most 10 words per
   answer (53 when the answers were sorted into a tree).  One run
   uncounted first, as the request after a load would be. *)
let test_answers_allocation () =
  let w = Workload.Gen.scale_workload ~tuples:20_000 () in
  let d = w.Workload.Gen.d in
  let q =
    Q.make ~head:[ "x" ] (Q.Exists ([ "y" ], Q.Atom (atom "S" [ v "x"; v "y" ])))
  in
  ignore (Qeval.answers d q);
  let answers, words = Alloc.allocated (fun () -> Qeval.answers d q) in
  let n = Tuple.Set.cardinal answers in
  Alcotest.(check bool) "answers" true (n > 10_000);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for %d answers <= 10 per answer" words n)
    true
    (words <= 10. *. float_of_int n)

let prop_consistent_subset_possible =
  QCheck.Test.make ~name:"consistent ⊆ possible ⊆ union with standard" ~count:60
    (QCheck.make ~print:(Fmt.str "%a" Instance.pp_inline) inst_gen)
    (fun d ->
      match Cqa.consistent_answers ~method_:Cqa.ModelTheoretic d scenario pquery with
      | Error _ -> true
      | Ok o -> Tuple.Set.subset o.Cqa.consistent o.Cqa.possible)

let prop_methods_agree =
  QCheck.Test.make ~name:"CQA agrees across all three engines" ~count:40
    (QCheck.make ~print:(Fmt.str "%a" Instance.pp_inline) inst_gen)
    (fun d ->
      match
        ( Cqa.consistent_answers ~method_:Cqa.ModelTheoretic d scenario pquery,
          Cqa.consistent_answers ~method_:Cqa.LogicProgram d scenario pquery,
          Cqa.consistent_answers ~method_:Cqa.CautiousProgram d scenario pquery )
      with
      | Ok a, Ok b, Ok c ->
          Tuple.Set.equal a.Cqa.consistent b.Cqa.consistent
          && Tuple.Set.equal a.Cqa.possible b.Cqa.possible
          && Tuple.Set.equal a.Cqa.consistent c.Cqa.consistent
          && Tuple.Set.equal a.Cqa.possible c.Cqa.possible
      | _ -> false)

let prop_consistent_on_consistent_db =
  QCheck.Test.make ~name:"consistent db: CQA = standard answers" ~count:60
    (QCheck.make ~print:(Fmt.str "%a" Instance.pp_inline) inst_gen)
    (fun d ->
      QCheck.assume (Semantics.Nullsat.consistent d scenario);
      match Cqa.consistent_answers ~method_:Cqa.ModelTheoretic d scenario pquery with
      | Error _ -> false
      | Ok o -> Tuple.Set.equal o.Cqa.consistent o.Cqa.standard)

(* ------------------------------------------------------------------ *)
(* Rendering: the one-string-per-set [Cqa.pp_outcome] against the renderer
   it replaced, which printed every parenthesis, separator and value as a
   formatter token of its own.  The bytes must agree at the default margin
   and nested in enclosing boxes at small margins. *)

let token_pp_outcome ppf (o : Cqa.outcome) =
  let pp_set ppf s =
    Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") Tuple.pp) (Tuple.Set.elements s)
  in
  Fmt.pf ppf "@[<v>consistent: %a@,possible:   %a@,standard:   %a@,repairs:    %d%a@]"
    pp_set o.Cqa.consistent pp_set o.Cqa.possible pp_set o.Cqa.standard
    o.Cqa.repair_count
    Fmt.(option (fun ppf e -> pf ppf "@,partial:    %a" Budget.pp_exhausted e))
    o.Cqa.exhausted

let outcome_gen =
  let open QCheck.Gen in
  (* integers over the whole range, the digit writer's edges among them,
     and strings that print like other values *)
  let value =
    frequency
      [
        (1, return vn);
        (2, map vi (int_range (-20) 20000));
        (1, map vi int);
        ( 1,
          map vi
            (oneofl
               [ 0; -1; 9; 10; -10; 99; 100; 1_000_000_000; 1_000_004_418; max_int;
                 max_int - 1; min_int; min_int + 1 ]) );
        (2, map vs (string_size ~gen:(char_range 'a' 'e') (int_range 1 6)));
        ( 1,
          map vs
            (oneofl [ "a b"; "x, y"; "(p)"; "{q}"; "é"; "null"; "-3"; "007"; "0"; "" ])
        );
      ]
  in
  (* 0-arity tuples included: a boolean query's yes is "{()}" *)
  let set = map Tuple.Set.of_list (list_size (int_range 0 25) (map Tuple.make (list_size (int_range 0 3) value))) in
  let exhausted =
    opt
      (oneof
         [
           map (fun n -> Budget.Decisions n) small_nat;
           map (fun n -> Budget.States n) small_nat;
           map (fun n -> Budget.Deadline n) small_nat;
         ])
  in
  (* often a set equal to one drawn before, the same array or a copy:
     the renderer writes each distinct set once *)
  let again earlier =
    frequency
      [
        (2, set);
        (1, oneofl earlier);
        (1, map (fun s -> Tuple.Set.of_list (Tuple.Set.elements s)) (oneofl earlier));
      ]
  in
  let sets =
    let* consistent = set in
    let* possible = again [ consistent ] in
    let* standard = again [ consistent; possible ] in
    return (consistent, possible, standard)
  in
  map
    (fun ((consistent, possible, standard), (repair_count, exhausted)) ->
      { Cqa.consistent; possible; standard; repair_count; exhausted })
    (pair sets (pair small_nat exhausted))

let render ~margin ~nest pp o =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf margin;
  (match nest with
  | 0 -> Format.fprintf ppf "%a@." pp o
  | 1 -> Format.fprintf ppf "@[<hov 2>outcome:@ %a@ done@]@." pp o
  | _ -> Format.fprintf ppf "@[<v 4>cqa q1@,%a@,@[<h>end@ of@ reply@]@]@." pp o);
  Buffer.contents buf

let prop_render_matches_tokens =
  QCheck.Test.make ~name:"pp_outcome = per-token renderer" ~count:500
    (QCheck.make ~print:(Fmt.str "%a" token_pp_outcome) outcome_gen)
    (fun o ->
      List.for_all
        (fun (margin, nest) ->
          String.equal
            (render ~margin ~nest Cqa.pp_outcome o)
            (render ~margin ~nest token_pp_outcome o))
        [ (78, 0); (20, 0); (78, 1); (60, 1); (40, 1); (20, 1); (8, 1); (78, 2); (20, 2) ])

(* Edge inputs of an answer set, each with the text [Cqa.pp_outcome]
   writes for it: the tuples are given in any order, with duplicates, and
   made a set by [Tuple.Set.of_list].  Each row is rendered as all three
   sets of an outcome and as its consistent set alone. *)
let set_cases : (string * Tuple.t list * string) list =
  [
    ("empty", [], "{}");
    ("a boolean yes", [ [||] ], "{()}");
    ("a boolean yes twice", [ [||]; [||] ], "{()}");
    ("duplicates kept once", [ [| vi 2 |]; [| vi 1 |]; [| vi 2 |]; [| vi 1 |] ], "{(1), (2)}");
    ("already in order", [ [| vi 1 |]; [| vi 2 |]; [| vi 3 |] ], "{(1), (2), (3)}");
    ("in reverse order", [ [| vi 3 |]; [| vi 2 |]; [| vi 1 |] ], "{(1), (2), (3)}");
    ("null, then ints, then strings", [ [| vs "a" |]; [| vi 7 |]; [| vn |] ], "{(null), (7), (a)}");
    ("null apart from the string null", [ [| vs "null" |]; [| vn |]; [| vs "null" |] ],
     "{(null), (null)}");
    ( "the int range's ends",
      [ [| vi max_int |]; [| vi 0 |]; [| vi min_int |]; [| vi (-1) |] ],
      "{(-4611686018427387904), (-1), (0), (4611686018427387903)}" );
    ("ints by value, not by digits", [ [| vi 10 |]; [| vi 9 |]; [| vi (-10) |] ],
     "{(-10), (9), (10)}");
    ("strings by bytes", [ [| vs "b" |]; [| vs "B" |]; [| vs "" |]; [| vs "ab" |] ],
     "{(), (B), (ab), (b)}");
    ("shorter tuples first", [ [| vi 1; vi 2 |]; [| vi 5 |]; [||]; [| vi 0; vn; vs "z" |] ],
     "{(), (5), (1, 2), (0, null, z)}");
    ("a column after a tie", [ [| vi 1; vs "b" |]; [| vi 1; vn |]; [| vi 0; vs "z" |] ],
     "{(0, z), (1, null), (1, b)}");
    ("separators inside strings", [ [| vs "x, y" |]; [| vs "(p)" |]; [| vs "{q}" |] ],
     "{((p)), (x, y), ({q})}");
  ]

let test_set_cases () =
  List.iter
    (fun (name, tuples, expected) ->
      let s = Tuple.Set.of_list tuples in
      let outcome consistent possible standard =
        Fmt.str "%a" Cqa.pp_outcome
          { Cqa.consistent; possible; standard; repair_count = 1; exhausted = None }
      in
      Alcotest.(check string) name
        (Printf.sprintf "consistent: %s\npossible:   %s\nstandard:   %s\nrepairs:    1"
           expected expected expected)
        (outcome s s s);
      Alcotest.(check string) (name ^ ", alone")
        (Printf.sprintf "consistent: %s\npossible:   {}\nstandard:   {}\nrepairs:    1" expected)
        (outcome s Tuple.Set.empty Tuple.Set.empty))
    set_cases

(* A server renders replies on several domains at once: four domains
   rendering one large outcome (20k answers) concurrently must each write
   the bytes of the sequential render. *)
let test_render_concurrent () =
  let answers n f = Tuple.Set.of_list (List.init n f) in
  let o =
    {
      Cqa.consistent = answers 20_000 (fun i -> [| vi (1_000_000_000 + i) |]);
      possible =
        answers 24_000 (fun i ->
            [| vi (1_000_000_000 + i); (if i mod 7 = 0 then vn else vi (-i)) |]);
      standard = answers 20_000 (fun i -> [| vs (Printf.sprintf "s%d" i); vi (max_int - i) |]);
      repair_count = 16;
      exhausted = None;
    }
  in
  let expected = render ~margin:78 ~nest:0 Cqa.pp_outcome o in
  Alcotest.(check string) "sequential render = per-token render" expected
    (render ~margin:78 ~nest:0 token_pp_outcome o);
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> List.init 3 (fun _ -> render ~margin:78 ~nest:0 Cqa.pp_outcome o)))
  in
  List.iteri
    (fun i d ->
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (Printf.sprintf "domain %d: the sequential bytes" i)
            true (String.equal r expected))
        (Domain.join d))
    domains

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "query"
    [
      ( "eval",
        [
          Alcotest.test_case "atom" `Quick test_atom_query;
          Alcotest.test_case "projection" `Quick test_projection_query;
          Alcotest.test_case "join" `Quick test_join_query;
          Alcotest.test_case "negation" `Quick test_negation_query;
          Alcotest.test_case "isnull" `Quick test_isnull_query;
          Alcotest.test_case "comparisons over null" `Quick test_comparison_semantics;
          Alcotest.test_case "compatible semantics (NullAware)" `Quick
            test_nullaware_semantics;
          Alcotest.test_case "forall" `Quick test_forall;
          Alcotest.test_case "NullAware takes the join" `Quick
            test_nullaware_join_allocation;
          Alcotest.test_case "answers in join order allocation" `Quick
            test_answers_allocation;
        ] );
      ( "safety",
        [
          Alcotest.test_case "safe-range" `Quick test_safety;
          Alcotest.test_case "validation" `Quick test_query_validation;
          Alcotest.test_case "compile union" `Quick test_progcqa_compile_union;
          Alcotest.test_case "compile unsafe" `Quick test_progcqa_unsafe_rejected;
        ] );
      ( "cqa",
        [
          Alcotest.test_case "students" `Quick test_cqa_students;
          Alcotest.test_case "courses" `Quick test_cqa_courses;
          Alcotest.test_case "methods agree" `Quick test_cqa_methods_agree;
          Alcotest.test_case "certain boolean" `Quick test_certain_boolean;
          Alcotest.test_case "consistent database" `Quick test_cqa_consistent_database;
          Alcotest.test_case "example 19" `Quick test_cqa_example19;
        ] );
      ( "cautious",
        [
          Alcotest.test_case "students" `Quick test_cautious_students;
          Alcotest.test_case "negation" `Quick test_cautious_negation;
          Alcotest.test_case "isnull" `Quick test_cautious_isnull;
          Alcotest.test_case "cyclic rejected" `Quick test_cautious_rejects_cyclic;
          Alcotest.test_case "forall rejected" `Quick test_cautious_forall_rejected;
          Alcotest.test_case "certain" `Quick test_cautious_certain;
          Alcotest.test_case "via Cqa method" `Quick test_cautious_via_cqa_method;
          Alcotest.test_case "effort budgets" `Quick test_cqa_budget;
        ] );
      ( "properties",
        qcheck
          [
            prop_nullaware_agrees_nullfree;
            prop_join_answers_match_enum;
            prop_witnessed_is_membership;
            prop_consistent_subset_possible;
            prop_methods_agree;
            prop_consistent_on_consistent_db;
            prop_render_matches_tokens;
          ] );
      ( "render",
        [
          Alcotest.test_case "concurrent domains" `Quick test_render_concurrent;
          Alcotest.test_case "edge sets" `Quick test_set_cases;
        ] );
    ]
