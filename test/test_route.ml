(* Tests for the routing layer (Route.Direct / Route.Tier) and the Auto
   CQA method: byte-identity of the repair-less direct computation against
   the enumerate oracle, classification pins for the paper's examples, and
   the 1000-case qcheck differential over tier-stratified workloads. *)

module Value = Relational.Value
module Atom = Relational.Atom
module Instance = Relational.Instance
module Term = Ic.Term
module Patom = Ic.Patom
module Constr = Ic.Constr
module Decompose = Repair.Decompose
module Enumerate = Repair.Enumerate
module Gen = Workload.Gen

let v = Term.var
let atom p ts = Patom.make p ts
let vs = Value.str
let vn = Value.null

let instance = Alcotest.testable Instance.pp_inline Instance.equal

(* The oracle: the monolithic enumerate engine's minimal repairs of [d]. *)
let oracle d ics =
  Repair.Order.minimal_among ~d (Enumerate.search d ics)

let direct_repairs d ics =
  match Route.Direct.analyze ~base:d ics with
  | Error why -> Alcotest.failf "expected Direct to accept: %s" why
  | Ok a -> Route.Direct.minimal_repairs a

let direct_rejects why d ics =
  match Route.Direct.analyze ~base:d ics with
  | Ok _ -> Alcotest.failf "expected Direct to reject (%s)" why
  | Error _ -> ()

let check_identical name d ics =
  let expected = oracle d ics in
  let actual = direct_repairs d ics in
  Alcotest.(check (list instance)) name expected actual

(* ------------------------------------------------------------------ *)
(* Direct: byte-identity on accepting shapes *)

let fd =
  Ic.Builder.functional_dependency ~name:"fd" ~pred:"R" ~arity:2 ~lhs:[ 1 ]
    ~rhs:2 ()

let test_direct_fd_identity () =
  let d =
    Instance.of_list
      [
        ("R", [ vs "k1"; vs "a" ]);
        ("R", [ vs "k1"; vs "b" ]);
        ("R", [ vs "k1"; vs "c" ]);
        ("R", [ vs "k2"; vs "x" ]);
        ("R", [ vs "k3"; vs "y" ]);
        ("R", [ vs "k3"; vs "z" ]);
      ]
  in
  check_identical "fd clusters" d [ fd ];
  (match Route.Direct.analyze ~base:d [ fd ] with
  | Error why -> Alcotest.failf "unexpected reject: %s" why
  | Ok a ->
      Alcotest.(check int) "3 * 2 repairs" 6 (Route.Direct.repair_count a);
      Alcotest.(check int)
        "materialized count matches" 6
        (List.length (Route.Direct.minimal_repairs a)))

let test_direct_forced () =
  (* NNC forces R(k1, null) out of every repair; the remaining FD conflict
     on k1 is then the null-free pair (a, b). *)
  let d =
    Instance.of_list
      [
        ("R", [ vs "k1"; vn ]);
        ("R", [ vs "k1"; vs "a" ]);
        ("R", [ vs "k1"; vs "b" ]);
      ]
  in
  let nnc = Constr.not_null ~name:"nn" ~pred:"R" ~arity:2 ~pos:2 () in
  check_identical "forced null tuple" d [ fd; nnc ];
  match Route.Direct.analyze ~base:d [ fd; nnc ] with
  | Error why -> Alcotest.failf "unexpected reject: %s" why
  | Ok a ->
      Alcotest.(check bool)
        "null tuple forced" true
        (Atom.Set.mem (Atom.make "R" [ vs "k1"; vn ]) a.Route.Direct.forced);
      Alcotest.(check int) "two repairs" 2 (Route.Direct.repair_count a)

let test_direct_denial_identity () =
  let d =
    Instance.of_list
      [
        ("P", [ vs "a"; vs "b" ]);
        ("P", [ vs "b"; vs "a" ]);
        ("P", [ vs "c"; vs "c" ]);
        ("P", [ vs "d"; vs "e" ]);
      ]
  in
  let no_sym =
    Ic.Builder.denial ~name:"no_sym"
      [ atom "P" [ v "x"; v "y" ]; atom "P" [ v "y"; v "x" ] ]
  in
  (* P(c,c) matches the denial twice with itself only: forced out. *)
  check_identical "symmetric denial" d [ no_sym ];
  match Route.Direct.analyze ~base:d [ no_sym ] with
  | Error why -> Alcotest.failf "unexpected reject: %s" why
  | Ok a ->
      Alcotest.(check bool)
        "self-loop forced" true
        (Atom.Set.mem (Atom.make "P" [ vs "c"; vs "c" ]) a.Route.Direct.forced)

let test_direct_consistent () =
  let d = Instance.of_list [ ("R", [ vs "k1"; vs "a" ]) ] in
  check_identical "no violations, one repair" d [ fd ];
  Alcotest.(check (list instance)) "repair is d" [ d ] (direct_repairs d [ fd ])

(* ------------------------------------------------------------------ *)
(* Direct: rejection guards *)

let test_direct_rejects () =
  let uic =
    Constr.generic ~name:"p_q" ~ante:[ atom "P" [ v "x" ] ]
      ~cons:[ atom "Q" [ v "x" ] ] ()
  in
  direct_rejects "insertion-capable constraint"
    (Instance.of_list [ ("P", [ vs "a" ]) ])
    [ uic ];
  (* A null in a relevant position never violates under |=_N, so the FD
     pair R(k1, null) / R(k1, a) is conflict-free and Direct accepts it
     with a single repair — identical to the oracle. *)
  check_identical "null value satisfies the FD"
    (Instance.of_list [ ("R", [ vs "k1"; vn ]); ("R", [ vs "k1"; vs "a" ]) ])
    [ fd ];
  (* ... but a null in a NON-relevant position rides into the conflict
     pair, where <=_D covering could fire: rejected. *)
  let no_pq2 =
    Ic.Builder.denial ~name:"no_pq2" [ atom "P" [ v "x"; v "y" ]; atom "Q" [ v "x" ] ]
  in
  direct_rejects "null in conflict"
    (Instance.of_list [ ("P", [ vs "a"; vn ]); ("Q", [ vs "a" ]) ])
    [ no_pq2 ];
  (* ternary denial: non-binary conflict *)
  let tri =
    Ic.Builder.denial ~name:"tri"
      [ atom "P" [ v "x"; v "y" ]; atom "P" [ v "y"; v "z" ]; atom "P" [ v "z"; v "x" ] ]
  in
  direct_rejects "ternary conflict"
    (Instance.of_list
       [ ("P", [ vs "a"; vs "b" ]); ("P", [ vs "b"; vs "c" ]); ("P", [ vs "c"; vs "a" ]) ])
    [ tri ]

let test_direct_non_multipartite () =
  let no_pq =
    Ic.Builder.denial ~name:"no_pq" [ atom "P" [ v "x" ]; atom "Q" [ v "x" ] ]
  in
  let no_qs =
    Ic.Builder.denial ~name:"no_qs" [ atom "Q" [ v "x" ]; atom "S" [ v "x" ] ]
  in
  let no_ps =
    Ic.Builder.denial ~name:"no_ps" [ atom "P" [ v "x" ]; atom "S" [ v "x" ] ]
  in
  let no_st =
    Ic.Builder.denial ~name:"no_st" [ atom "S" [ v "x" ]; atom "T" [ v "x" ] ]
  in
  (* The 3-path P-Q-S is complete bipartite ({P,S} vs {Q}): accepted, and
     its two minimal hitting sets match the oracle. *)
  let d3 =
    Instance.of_list [ ("P", [ vs "a" ]); ("Q", [ vs "a" ]); ("S", [ vs "a" ]) ]
  in
  check_identical "3-path is K_1,2" d3 [ no_pq; no_qs ];
  (* ... the triangle is K_3 *)
  check_identical "triangle is K_3" d3 [ no_pq; no_qs; no_ps ];
  (* ... but the 4-path P-Q-S-T is NOT complete multipartite (P is
     non-adjacent to both S and T, yet S-T is an edge, so non-adjacency is
     not transitive): rejected. *)
  let d4 =
    Instance.of_list
      [ ("P", [ vs "a" ]); ("Q", [ vs "a" ]); ("S", [ vs "a" ]); ("T", [ vs "a" ]) ]
  in
  direct_rejects "4-path is not complete multipartite" d4 [ no_pq; no_qs; no_st ]

(* ------------------------------------------------------------------ *)
(* Tier classification pins *)

let verdict_tier d ics =
  let plan = Decompose.plan d ics in
  List.map (fun v -> v.Route.Tier.tier) (Route.Tier.plan plan)

let test_tier_pins () =
  (* FD conflicts (Example 13's key-violation shape): Direct *)
  let fd_case = Gen.fd_workload ~n:4 ~dup_rate:1.0 () in
  Alcotest.(check (list string))
    "fd workload routes direct"
    [ "direct"; "direct"; "direct"; "direct" ]
    (List.map Budget.tier_name (verdict_tier fd_case.Gen.d fd_case.Gen.ics));
  (* Example 2's RIC (Course/Student): inside Definition 9, statically
     HCF, but repairable by insertion: Shifted *)
  let ric_d =
    Instance.of_list
      [
        ("Course", [ Value.int 21; vs "C15" ]);
        ("Course", [ Value.int 34; vs "C18" ]);
        ("Student", [ Value.int 21; vs "Ann" ]);
      ]
  in
  let ric =
    Constr.generic ~name:"ric"
      ~ante:[ atom "Course" [ v "id"; v "code" ] ]
      ~cons:[ atom "Student" [ v "id"; v "name" ] ]
      ()
  in
  Alcotest.(check (list string))
    "RIC routes shifted" [ "shifted" ]
    (List.map Budget.tier_name (verdict_tier ric_d [ ric ]));
  (* The bilateral P(x,y) -> P(y,x) (Theorem 5's counter-shape):
     Disjunctive *)
  let bil = Gen.bilateral_loop ~n:3 () in
  let tiers = verdict_tier bil.Gen.d bil.Gen.ics in
  List.iter
    (fun t ->
      Alcotest.(check string) "bilateral routes disjunctive" "disjunctive"
        (Budget.tier_name t))
    tiers;
  (* General-existential constraint (outside Definition 9): Enumerated *)
  let gen_d = Instance.of_list [ ("P", [ vs "a" ]); ("Q", [ vs "a" ]) ] in
  let gen_ic =
    Constr.generic ~name:"pq_r"
      ~ante:[ atom "P" [ v "x" ]; atom "Q" [ v "x" ] ]
      ~cons:[ atom "R" [ v "x"; v "y" ] ]
      ()
  in
  Alcotest.(check (list string))
    "general existential routes enumerate" [ "enumerate" ]
    (List.map Budget.tier_name (verdict_tier gen_d [ gen_ic ]));
  (* Example 20: a NOT NULL constraint on the RIC's existential attribute
     makes the repair program's null-insertions infeasible — the program's
     repair set diverges from the model-theoretic one, so the component
     must route to enumeration, not to the shifted program. *)
  let p_r =
    Constr.generic ~name:"p_r"
      ~ante:[ atom "P" [ v "x" ] ]
      ~cons:[ atom "R" [ v "x"; v "y" ] ]
      ()
  in
  let nn_r2 = Constr.not_null ~name:"nn_r2" ~pred:"R" ~arity:2 ~pos:2 () in
  Alcotest.(check (list string))
    "Example 20 conflict routes enumerate" [ "enumerate" ]
    (List.map Budget.tier_name
       (verdict_tier (Instance.of_list [ ("P", [ vs "a" ]) ]) [ p_r; nn_r2 ]))

(* ------------------------------------------------------------------ *)
(* qcheck differential: Direct (when accepted) vs the enumerate oracle,
   component by component *)

let qcheck_direct_differential =
  QCheck.Test.make ~count:400 ~name:"direct accepted => identical to oracle"
    QCheck.(map (fun i -> i) small_nat)
    (fun seed ->
      let case = Gen.route_case ~seed () in
      let plan = Decompose.plan case.Gen.d case.Gen.ics in
      List.for_all
        (fun (c : Decompose.component) ->
          let base = Instance.union c.Decompose.sub c.Decompose.support in
          match Route.Direct.analyze ~base c.Decompose.ics with
          | Error _ -> true
          | Ok a ->
              let expected = oracle base c.Decompose.ics in
              let actual = Route.Direct.minimal_repairs a in
              List.length expected = List.length actual
              && List.for_all2 Instance.equal expected actual
              && Route.Direct.repair_count a = List.length actual)
        plan.Decompose.components)

(* ------------------------------------------------------------------ *)
(* qcheck differential: the Auto method against the monolithic
   model-theoretic oracle, full outcomes, over the tier-stratified
   mixed workloads of Gen.route_case *)

module Qsyntax = Query.Qsyntax
module Tuple = Relational.Tuple

let cqa_queries =
  [
    Qsyntax.make ~head:[ "x" ] (Qsyntax.Atom (atom "P" [ v "x" ]));
    Qsyntax.make ~head:[ "x" ]
      (Qsyntax.And
         ( Qsyntax.Atom (atom "R" [ v "x"; v "y" ]),
           Qsyntax.Atom (atom "S" [ v "x" ]) ));
    Qsyntax.make ~head:[ "x" ]
      (Qsyntax.And
         ( Qsyntax.Atom (atom "P" [ v "x" ]),
           Qsyntax.Not (Qsyntax.Atom (atom "Q" [ v "x" ])) ));
  ]

let same_outcome (a : Query.Cqa.outcome) (b : Query.Cqa.outcome) =
  Tuple.Set.equal a.Query.Cqa.consistent b.Query.Cqa.consistent
  && Tuple.Set.equal a.Query.Cqa.possible b.Query.Cqa.possible
  && Tuple.Set.equal a.Query.Cqa.standard b.Query.Cqa.standard
  && a.Query.Cqa.repair_count = b.Query.Cqa.repair_count
  && a.Query.Cqa.exhausted = b.Query.Cqa.exhausted

let qcheck_auto_differential =
  QCheck.Test.make ~count:1000
    ~name:"auto method = monolithic enumerate oracle (1000 cases)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let case = Gen.route_case ~seed () in
      List.for_all
        (fun q ->
          match
            ( Query.Cqa.consistent_answers ~method_:Query.Cqa.Auto case.Gen.d
                case.Gen.ics q,
              Query.Cqa.consistent_answers ~method_:Query.Cqa.ModelTheoretic
                case.Gen.d case.Gen.ics q )
          with
          | Ok auto, Ok oracle ->
              same_outcome auto oracle
              || QCheck.Test.fail_reportf "auto <> oracle on %s" case.Gen.label
          | Error _, Error _ -> true
          | Ok _, Error _ | Error _, Ok _ ->
              QCheck.Test.fail_reportf "auto/oracle disagree on errors on %s"
                case.Gen.label)
        cqa_queries)

let () =
  Alcotest.run "route"
    [
      ( "direct",
        [
          Alcotest.test_case "fd identity" `Quick test_direct_fd_identity;
          Alcotest.test_case "forced deletions" `Quick test_direct_forced;
          Alcotest.test_case "denial identity" `Quick test_direct_denial_identity;
          Alcotest.test_case "consistent base" `Quick test_direct_consistent;
          Alcotest.test_case "rejections" `Quick test_direct_rejects;
          Alcotest.test_case "multipartite guard" `Quick
            test_direct_non_multipartite;
        ] );
      ("tier", [ Alcotest.test_case "pins" `Quick test_tier_pins ]);
      ( "differential",
        [
          QCheck_alcotest.to_alcotest qcheck_direct_differential;
          QCheck_alcotest.to_alcotest qcheck_auto_differential;
        ] );
    ]
