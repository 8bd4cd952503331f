(* Tests for the conflict-component decomposition (Repair.Decompose): the
   plan itself, the decomposed pipeline (Query.Cqa.repairs) on both
   materializing engines against the monolithic ones, and the
   differential qcheck suites. *)

module Value = Relational.Value
module Atom = Relational.Atom
module Instance = Relational.Instance
module Tuple = Relational.Tuple
module Term = Ic.Term
module Patom = Ic.Patom
module Constr = Ic.Constr
module Decompose = Repair.Decompose
module Enumerate = Repair.Enumerate
module Gen = Workload.Gen
module Qsyntax = Query.Qsyntax

let v = Term.var
let atom p ts = Patom.make p ts
let vn = Value.null
let vs = Value.str

let instance = Alcotest.testable Instance.pp_inline Instance.equal

let check_repair_set name expected actual =
  let sort = List.sort Instance.compare in
  Alcotest.(check (list instance)) name (sort expected) (sort actual)

(* [Rep(D, IC)] through the front door of the decomposed pipeline *)
let decomposed method_ d ics =
  match Query.Cqa.repairs ~method_ d ics with
  | Ok reps -> reps
  | Error msg -> Alcotest.failf "decomposed repairs: %s" msg

(* the decomposed pipeline on each materializing engine against that
   engine's monolithic oracle: the search of Definition 7 and the program
   of Definition 9, which differ where Theorem 4 does not apply (a
   conflicting NNC, Example 20) *)
let same_repairs name d ics =
  check_repair_set name (Enumerate.repairs d ics)
    (decomposed Query.Cqa.ModelTheoretic d ics);
  match Core.Engine.repairs d ics with
  | Ok mono ->
      check_repair_set (name ^ ", program engine") mono
        (decomposed Query.Cqa.LogicProgram d ics)
  | Error msg -> Alcotest.failf "%s: program engine: %s" name msg

(* ------------------------------------------------------------------ *)
(* Fixtures from test_repair.ml (Examples 15-20) *)

let ex15_d =
  Instance.of_list
    [
      ("Course", [ Value.int 21; vs "C15" ]);
      ("Course", [ Value.int 34; vs "C18" ]);
      ("Student", [ Value.int 21; vs "Ann" ]);
      ("Student", [ Value.int 45; vs "Paul" ]);
    ]

let ex15_ric =
  Constr.generic
    ~ante:[ atom "Course" [ v "id"; v "code" ] ]
    ~cons:[ atom "Student" [ v "id"; v "name" ] ]
    ()

let ex18_d =
  Instance.of_list [ ("P", [ vs "a"; vs "b" ]); ("P", [ vn; vs "a" ]); ("T", [ vs "c" ]) ]

let ex18_ics =
  [
    Constr.generic ~ante:[ atom "P" [ v "x"; v "y" ] ] ~cons:[ atom "T" [ v "x" ] ] ();
    Constr.generic ~ante:[ atom "T" [ v "x" ] ] ~cons:[ atom "P" [ v "y"; v "x" ] ] ();
  ]

let ex19_d =
  Instance.of_list
    [
      ("R", [ vs "a"; vs "b" ]);
      ("R", [ vs "a"; vs "c" ]);
      ("S", [ vs "e"; vs "f" ]);
      ("S", [ vn; vs "a" ]);
    ]

let ex19_ics =
  Ic.Builder.key ~pred:"R" ~arity:2 ~key:[ 1 ] ()
  @ [
      Ic.Builder.foreign_key ~child:"S" ~child_arity:2 ~child_cols:[ 2 ]
        ~parent:"R" ~parent_arity:2 ~parent_cols:[ 1 ] ();
      Constr.not_null ~pred:"R" ~arity:2 ~pos:1 ();
    ]

let ex20_d =
  Instance.of_list [ ("P", [ vs "a" ]); ("P", [ vs "b" ]); ("Q", [ vs "b"; vs "c" ]) ]

let ex20_ics =
  [
    Constr.generic ~ante:[ atom "P" [ v "x" ] ] ~cons:[ atom "Q" [ v "x"; v "y" ] ] ();
    Constr.not_null ~pred:"Q" ~arity:2 ~pos:2 ();
  ]

(* ------------------------------------------------------------------ *)
(* The plan *)

let test_plan_consistent () =
  let d = Instance.of_list [ ("Course", [ Value.int 21; vs "C15" ]); ("Student", [ Value.int 21; vs "Ann" ]) ] in
  let plan = Decompose.plan d [ ex15_ric ] in
  Alcotest.(check int) "no components" 0 (List.length plan.Decompose.components);
  Alcotest.(check bool) "core = D" true (Instance.equal plan.Decompose.core d)

let test_plan_clusters () =
  let w = Gen.clusters_workload ~padding:2 ~k:4 () in
  let plan = Decompose.plan w.Gen.d w.Gen.ics in
  Alcotest.(check int) "4 components" 4 (List.length plan.Decompose.components);
  Alcotest.(check bool) "product exact" true plan.Decompose.product_exact;
  (* the padded triples are untouched *)
  Alcotest.(check int) "core holds the padding" 6 (Instance.cardinal plan.Decompose.core);
  List.iter
    (fun (c : Decompose.component) ->
      Alcotest.(check int) "one original tuple per component" 1
        (Instance.cardinal c.Decompose.sub);
      Alcotest.(check int) "both constraints touch each component" 2
        (List.length c.Decompose.ics))
    plan.Decompose.components

let test_plan_support_atoms () =
  (* P(a) violates the RIC, and the UIC P(x) -> Q(x) is permanently
     satisfied by the core witness Q(a): the component search must carry
     Q(a) along or it would see a spurious violation. *)
  let d = Instance.of_list [ ("P", [ vs "a" ]); ("Q", [ vs "a" ]) ] in
  let ics =
    [
      Constr.generic ~name:"ric" ~ante:[ atom "P" [ v "x" ] ]
        ~cons:[ atom "R" [ v "x"; v "y" ] ]
        ();
      Constr.generic ~name:"uic" ~ante:[ atom "P" [ v "x" ] ]
        ~cons:[ atom "Q" [ v "x" ] ]
        ();
    ]
  in
  let plan = Decompose.plan d ics in
  Alcotest.(check int) "one component" 1 (List.length plan.Decompose.components);
  let c = List.hd plan.Decompose.components in
  Alcotest.(check bool) "Q(a) is support" true
    (Instance.mem (Atom.make "Q" [ vs "a" ]) c.Decompose.support);
  same_repairs "support keeps the repairs equal" d ics

let test_components_share_universe () =
  (* conflicting NNC (Example 20): insertions range over the universe of
     the whole instance, even from a component that does not mention every
     constant *)
  let plan = Decompose.plan ex20_d ex20_ics in
  same_repairs "Example 20 decomposed" ex20_d ex20_ics;
  Alcotest.(check bool) "universe covers c" true
    (List.mem (vs "c") plan.Decompose.universe)

let test_denial_through_candidate () =
  (* S(a) violates the RIC, and its fix inserts R(a, null).  The denial
     R(x, y), Q(x) -> false has no violation in D, but R(a, null) joins
     the core Q(a) into one: the closure seeds no denial join from an atom
     of D (such a match over D alone is an actual violation, already a
     seed), so Q(a) is reached only through the candidate. *)
  let d =
    Instance.of_list
      [
        ("S", [ vs "a" ]);
        ("S", [ vs "b" ]);
        ("Q", [ vs "a" ]);
        ("R", [ vs "b"; vs "c" ]);
        ("R", [ vs "b"; vs "d" ]);
      ]
  in
  let ics =
    [
      Constr.generic ~name:"ric" ~ante:[ atom "S" [ v "x" ] ]
        ~cons:[ atom "R" [ v "x"; v "y" ] ]
        ();
      Constr.generic ~name:"denial"
        ~ante:[ atom "R" [ v "x"; v "y" ]; atom "Q" [ v "x" ] ]
        ~cons:[] ();
      Ic.Builder.functional_dependency ~name:"fd" ~pred:"R" ~arity:2 ~lhs:[ 1 ]
        ~rhs:2 ();
    ]
  in
  let plan = Decompose.plan d ics in
  let s_a = Atom.make "S" [ vs "a" ] in
  match
    List.find_opt
      (fun c -> Atom.Set.mem s_a c.Decompose.atoms)
      plan.Decompose.components
  with
  | None -> Alcotest.fail "S(a) is in no component"
  | Some c ->
      Alcotest.(check (list string))
        "S(a)'s component"
        [ "Q(a)"; "R(a, null)"; "S(a)" ]
        (List.map Atom.to_string (Atom.Set.elements c.Decompose.atoms));
      same_repairs "denial through a candidate" d ics

(* ------------------------------------------------------------------ *)
(* Decomposed repairs = monolithic on the paper's examples *)

let test_examples_differential () =
  same_repairs "Example 15" ex15_d [ ex15_ric ];
  same_repairs "Example 18 (RIC-cyclic)" ex18_d ex18_ics;
  same_repairs "Example 19 (key+FK+NNC)" ex19_d ex19_ics;
  same_repairs "Example 20 (conflicting NNC)" ex20_d ex20_ics

let test_clusters_differential () =
  let w = Gen.clusters_workload ~padding:1 ~k:3 () in
  same_repairs "3 clusters" w.Gen.d w.Gen.ics;
  let reps = decomposed Query.Cqa.ModelTheoretic w.Gen.d w.Gen.ics in
  Alcotest.(check int) "2^3 repairs" 8 (List.length reps)

let test_exploration_collapses () =
  (* the headline claim: k independent clusters cost the sum, not the
     product, of the per-cluster searches *)
  let w = Gen.clusters_workload ~k:4 () in
  let monolithic = ref 0 in
  ignore (Enumerate.search ~explored:monolithic w.Gen.d w.Gen.ics);
  let r = Component_search.enumerate w.Gen.d w.Gen.ics in
  let decomposed = List.fold_left ( + ) 0 r.Component_search.explored in
  Alcotest.(check bool)
    (Printf.sprintf "decomposed %d states <= monolithic %d / 5" decomposed !monolithic)
    true
    (decomposed * 5 <= !monolithic);
  Alcotest.(check int) "repair count factorizes" 16
    (Decompose.count_product (List.map List.length r.Component_search.minimal))

(* ------------------------------------------------------------------ *)
(* Engine and CQA wiring *)

let test_engine_decomposed () =
  let w = Gen.clusters_workload ~k:3 () in
  match Core.Engine.repairs w.Gen.d w.Gen.ics with
  | Ok mono ->
      List.iter
        (fun (name, method_) ->
          check_repair_set
            ("engine decomposed = monolithic, " ^ name)
            mono
            (decomposed method_ w.Gen.d w.Gen.ics))
        Query.Cqa.[ ("enumerate", ModelTheoretic); ("program", LogicProgram) ]
  | Error msg -> Alcotest.failf "engine failed: %s" msg

let q_single = Qsyntax.make ~head:[ "x" ] (Qsyntax.Atom (atom "S" [ v "x" ]))

let q_join =
  Qsyntax.make ~head:[ "x" ]
    (Qsyntax.And (Qsyntax.Atom (atom "R" [ v "x"; v "y" ]), Qsyntax.Atom (atom "T" [ v "x" ])))

let q_negated =
  Qsyntax.make ~head:[ "x" ]
    (Qsyntax.And (Qsyntax.Atom (atom "S" [ v "x" ]), Qsyntax.Not (Qsyntax.Atom (atom "T" [ v "x" ]))))

let check_same_outcome name d ics q =
  let tset = Alcotest.testable (Fmt.any "tuple-set") Tuple.Set.equal in
  match
    ( Query.Cqa.consistent_answers ~method_:Query.Cqa.ModelTheoretic d ics q,
      Query.Cqa.consistent_answers ~method_:Query.Cqa.ModelTheoretic
        ~decompose:true d ics q )
  with
  | Ok mono, Ok dec ->
      Alcotest.check tset (name ^ ": consistent") mono.Query.Cqa.consistent
        dec.Query.Cqa.consistent;
      Alcotest.check tset (name ^ ": possible") mono.Query.Cqa.possible
        dec.Query.Cqa.possible;
      Alcotest.(check int)
        (name ^ ": repair_count")
        mono.Query.Cqa.repair_count dec.Query.Cqa.repair_count
  | _ -> Alcotest.fail (name ^ ": CQA failed")

let test_cqa_decomposed () =
  let w = Gen.clusters_workload ~padding:1 ~k:3 () in
  check_same_outcome "single-atom" w.Gen.d w.Gen.ics q_single;
  check_same_outcome "join" w.Gen.d w.Gen.ics q_join;
  check_same_outcome "negated (fallback)" w.Gen.d w.Gen.ics q_negated

(* ------------------------------------------------------------------ *)
(* Differential qcheck suites over random schemas *)

let diff_repairs_test =
  QCheck.Test.make ~name:"decomposed repairs = monolithic (500 random cases)"
    ~count:500
    QCheck.(int_bound 1_000_000) (fun seed ->
      let w = Gen.random_case ~seed () in
      let sort = List.sort Instance.compare in
      match
        ( sort (Enumerate.repairs w.Gen.d w.Gen.ics),
          Query.Cqa.repairs ~method_:Query.Cqa.ModelTheoretic w.Gen.d w.Gen.ics
        )
      with
      | _, Error msg
        when msg = Budget.message (Budget.States Budget.search_states) ->
          true
      | _, Error msg -> QCheck.Test.fail_reportf "%s: %s" w.Gen.label msg
      | mono, Ok dec ->
          let dec = sort dec in
          if List.length mono <> List.length dec || not (List.for_all2 Instance.equal mono dec)
          then
            QCheck.Test.fail_reportf "repairs differ on %s:@.mono %a@.dec %a"
              w.Gen.label
              Fmt.(list ~sep:(any " | ") Instance.pp_inline)
              mono
              Fmt.(list ~sep:(any " | ") Instance.pp_inline)
              dec
          else true
      | exception Budget.Exhausted _ -> true)

let diff_cqa_test =
  QCheck.Test.make ~name:"decomposed CQA = monolithic (200 random cases)"
    ~count:200
    QCheck.(int_bound 1_000_000) (fun seed ->
      let w = Gen.random_case ~seed () in
      List.for_all
        (fun q ->
          match
            ( Query.Cqa.consistent_answers ~method_:Query.Cqa.ModelTheoretic
                w.Gen.d w.Gen.ics q,
              Query.Cqa.consistent_answers ~method_:Query.Cqa.ModelTheoretic
                ~decompose:true w.Gen.d w.Gen.ics q )
          with
          | Ok _, Ok dec when dec.Query.Cqa.exhausted <> None ->
              (* the decomposed run degraded gracefully under the budget:
                 its partial answers need not match the monolithic ones *)
              true
          | Ok mono, Ok dec ->
              Tuple.Set.equal mono.Query.Cqa.consistent dec.Query.Cqa.consistent
              && Tuple.Set.equal mono.Query.Cqa.possible dec.Query.Cqa.possible
              && mono.Query.Cqa.repair_count = dec.Query.Cqa.repair_count
          | Error _, (Error _ | Ok _) -> true
          | _ -> false)
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
        ])

(* ------------------------------------------------------------------ *)
(* The core's answers derived from the standard answers against the core
   evaluated (Cqa_oracle), on random cases of three generators and random
   single-atom factorizable queries: constants (one absent from every
   instance, and null), repeated variables, comparisons with and without
   offsets, IsNull, boolean and non-boolean heads, free or quantified
   non-head variables.  A random suffix of the components stands for a
   budget trip: their base slices replace their repairs, as
   Decompose.solve's prefix rule leaves them. *)

let random_single_atom_query rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let pred, arity = pick [ ("P", 1); ("Q", 1); ("R", 2); ("S", 1) ] in
  let const () = pick [ vs "a"; vs "b"; vs "c"; vs "d"; vn ] in
  let terms =
    List.init arity (fun _ ->
        if Random.State.int rng 4 = 0 then Term.const (const ())
        else v (pick [ "x"; "y" ]))
  in
  let vars = List.sort_uniq String.compare (Patom.vars (atom pred terms)) in
  let op () = pick Ic.Builtin.[ Eq; Neq; Lt; Leq; Gt; Geq ] in
  let side () =
    if vars = [] || Random.State.int rng 3 = 0 then Ic.Builtin.econst (const ())
    else Ic.Builtin.evar (pick vars)
  in
  let filter () =
    match Random.State.int rng 6 with
    | 0 | 1 -> Qsyntax.Builtin (Ic.Builtin.cmp (op ()) (side ()) (side ()))
    | 2 -> Qsyntax.Builtin (Ic.Builtin.cmp (op ()) (Ic.Builtin.shift (side ()) 1) (side ()))
    | 3 | 4 when vars <> [] -> Qsyntax.IsNull (v (pick vars))
    | _ -> Qsyntax.IsNull (Term.const (const ()))
  in
  let filters = List.init (Random.State.int rng 3) (fun _ -> filter ()) in
  let head = List.filter (fun _ -> Random.State.bool rng) vars in
  let head = if Random.State.bool rng then List.rev head else head in
  let body =
    List.fold_left
      (fun f g -> if Random.State.bool rng then Qsyntax.And (f, g) else Qsyntax.And (g, f))
      (Qsyntax.Atom (atom pred terms))
      filters
  in
  let hidden = List.filter (fun x -> not (List.mem x head)) vars in
  Qsyntax.make ~head
    (if hidden <> [] && Random.State.bool rng then Qsyntax.Exists (hidden, body)
     else body)

let fuzz_case seed =
  let sc = Conform.Fuzz.gen ~seed () in
  match Lang.Load.of_string (Conform.Fuzz.source sc) with
  | Ok l -> (Lang.Load.final_instance l, l.Lang.Load.ics)
  | Error e -> failwith e

let same_outcome (a : Query.Cqa.outcome) (b : Query.Cqa.outcome) =
  Tuple.Set.equal a.Query.Cqa.consistent b.Query.Cqa.consistent
  && Tuple.Set.equal a.Query.Cqa.possible b.Query.Cqa.possible
  && Tuple.Set.equal a.Query.Cqa.standard b.Query.Cqa.standard
  && a.Query.Cqa.repair_count = b.Query.Cqa.repair_count
  && a.Query.Cqa.exhausted = b.Query.Cqa.exhausted

let diff_core_answers_test =
  QCheck.Test.make
    ~name:"derived core answers = evaluated core (2000 random cases, 3 semantics)"
    ~count:2000
    QCheck.(int_bound 1_000_000) (fun seed ->
      let d, ics =
        match seed mod 3 with
        | 0 -> let w = Gen.random_case ~seed () in (w.Gen.d, w.Gen.ics)
        | 1 -> let w = Gen.route_case ~seed () in (w.Gen.d, w.Gen.ics)
        | _ -> fuzz_case seed
      in
      let rng = Random.State.make [| seed; 0xc0de |] in
      let q = random_single_atom_query rng in
      let plan = Decompose.plan d ics in
      QCheck.assume plan.Decompose.product_exact;
      let n = List.length plan.Decompose.components in
      let trip = Random.State.int rng (n + 2) in
      let minimal =
        List.mapi
          (fun i c ->
            match
              if i >= trip then None
              else
                let budget = Budget.start (Budget.make ~max_states:20_000 ()) in
                match Enumerate.solve_component ~budget plan c with
                | Decompose.Solved (minimal, _, _) -> Some minimal
                | Decompose.Tripped _ | Decompose.Failed _ -> None
            with
            | Some minimal -> minimal
            | None -> [ Decompose.base c ])
          plan.Decompose.components
      in
      let exhausted = if trip < n then Some (Budget.States 0) else None in
      Query.Qsafe.shape q = Query.Qsafe.Single
      && List.for_all
           (fun semantics ->
             let standard = Query.Qeval.answers ~semantics d q in
             let derived =
               Query.Cqa.factorized_outcome ~semantics ?exhausted ~plan ~minimal
                 ~standard q
             and evaluated =
               Cqa_oracle.single_atom_outcome ~semantics ?exhausted ~plan
                 ~minimal ~standard q
             in
             same_outcome derived evaluated
             || QCheck.Test.fail_reportf "seed %d, query %a:@.%a@.vs the evaluated core:@.%a"
                  seed Qsyntax.pp q Query.Cqa.pp_outcome derived Query.Cqa.pp_outcome
                  evaluated)
           Query.Qeval.[ NullAsConstant; SqlLike; NullAware ])

(* ------------------------------------------------------------------ *)
(* The worklist planner against the round-based oracle (Plan_oracle):
   whole plans, field by field — same components in the same order with
   the same atoms/sub/support/ics, an equal core, the same NNC positions
   and product exactness, and the oracle's universe where an insertion
   reads it ({!Repair.Actions.reads_universe}), none elsewhere — and the
   components' supports together equal to the oracle's support
   fixpoint. *)

let plan_mismatch ics (a : Decompose.plan) (b : Decompose.plan) =
  let universe =
    if Repair.Actions.reads_universe ~nnc_positions:b.Decompose.nnc_positions ics
    then b.Decompose.universe
    else []
  in
  let same_component (x : Decompose.component) (y : Decompose.component) =
    Atom.Set.equal x.Decompose.atoms y.Decompose.atoms
    && Instance.equal x.Decompose.sub y.Decompose.sub
    && Instance.equal x.Decompose.support y.Decompose.support
    && List.equal (fun p q -> Constr.compare p q = 0) x.Decompose.ics y.Decompose.ics
  in
  if not (Instance.equal a.Decompose.core b.Decompose.core) then Some "core"
  else if not (List.equal same_component a.Decompose.components b.Decompose.components)
  then Some "components"
  else if not (List.equal Value.equal a.Decompose.universe universe) then
    Some "universe"
  else if a.Decompose.nnc_positions <> b.Decompose.nnc_positions then Some "nnc_positions"
  else if a.Decompose.product_exact <> b.Decompose.product_exact then Some "product_exact"
  else None

(* the worklist plan, once it matches the oracle's *)
let check_against_oracle name d ics =
  let plan = Decompose.plan d ics in
  let oracle, support = Plan_oracle.plan_and_support d ics in
  match plan_mismatch ics plan oracle with
  | Some field -> Alcotest.failf "%s: plan differs from the oracle in %s" name field
  | None ->
      let attributed =
        List.fold_left
          (fun acc c -> Instance.union acc c.Decompose.support)
          Instance.empty plan.Decompose.components
      in
      if not (Instance.equal attributed support) then
        Alcotest.failf "%s: the components' supports are not the support fixpoint"
          name;
      plan

let test_oracle_generated () =
  let cases = ref 0 and with_components = ref 0 in
  List.iter
    (fun (family, gen) ->
      for seed = 1 to 1500 do
        let w = gen ~seed () in
        let plan =
          check_against_oracle (Printf.sprintf "%s seed %d" family seed) w.Gen.d w.Gen.ics
        in
        incr cases;
        if plan.Decompose.components <> [] then incr with_components
      done)
    [
      ("random_case", fun ~seed () -> Gen.random_case ~seed ());
      ("route_case", fun ~seed () -> Gen.route_case ~seed ());
    ];
  (* the sweep must exercise the closure, not only consistent instances *)
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d cases have conflicts" !with_components !cases)
    true
    (!with_components * 2 >= !cases)

let test_oracle_workloads () =
  List.iter
    (fun (w : Gen.t) -> ignore (check_against_oracle w.Gen.label w.Gen.d w.Gen.ics))
    [
      Gen.clusters_workload ~padding:3 ~k:5 ();
      Gen.clusters_workload ~weight:3 ~k:4 ();
      Gen.scale_workload ~tuples:2_000 ();
      Gen.chain_workload ~n:40 ~broken:6 ();
      Gen.bilateral_loop ~n:12 ();
    ]

(* every .cqa file under scenarios/, at its final instance *)
let test_oracle_scenarios () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun f ->
           let path = Filename.concat dir f in
           if Sys.is_directory path then files path
           else if Filename.check_suffix f ".cqa" then [ path ]
           else [])
  in
  let paths = files "../scenarios" in
  Alcotest.(check bool) "scenario files found" true (List.length paths >= 20);
  List.iter
    (fun path ->
      match Lang.Load.of_file path with
      | Ok l -> ignore (check_against_oracle path (Lang.Load.final_instance l) l.Lang.Load.ics)
      | Error e -> Alcotest.failf "%s: %s" path e)
    paths

(* ------------------------------------------------------------------ *)
(* Allocation guard: on a large instance with few conflicts, the check
   allocates nothing per row, one query evaluation little beyond its
   result, planning one check plus work proportional to the conflicts, and
   the factorized answer algebra work proportional to the conflicts, once
   the query's head column is indexed.  Words are counted exactly
   ({!Alloc.allocated}). *)

(* Planning's bookkeeping per conflict atom beyond its check (closure and
   support joins, union-find, components, the overlay core): 1.62k words
   on this workload (45.4k for 28 atoms), plus a tenth.  The check
   allocates per constraint, not per row (1.9k words here, 3.57M when it
   built a binding per row), so a fraction of it cannot cover the
   bookkeeping: the conflict term is explicit and the check term keeps
   its 1.2. *)
let plan_words_per_atom = 1_800.

(* The check's comparisons read their sides unboxed, so it allocates per
   constraint, not per row: 1.9k words at 20k tuples as at 80k.  Boxing
   one comparison side per antecedent match costs 2 words per row again,
   40k words here. *)
let check_words = 10_000.

(* Recombination's allocation per component atom, beyond the one copy
   of the standard answers below: the core's answers are derived from the
   standard answers (a pattern match, one seeded join over the core per
   answer the components may lose), and each component's repairs are
   evaluated alone, a compiled join of a few hundred words per repair:
   315 words per atom at 20k tuples, 313 at 80k, on the first request
   after planning.  Evaluating the core again costs 1.1M words at 20k
   tuples and 5.1M at 80k. *)
let recombine_words_per_atom = 1_000.

(* An answer set is a sorted array, so a result that loses answers is a
   new array: the one [diff] of the standard answers, a word per answer
   and a header, the one part of recombination that grows with the
   table.  On this workload only the consistent answers lose any (those
   only the conflicts witness); the possible answers are the standard
   ones and must come back as that very array, so that any other copy
   counts against the per-atom bound. *)
let consistent_copy_words (o : Query.Cqa.outcome) =
  Alcotest.(check bool) "possible answers are the standard array itself" true
    (o.Query.Cqa.possible == o.Query.Cqa.standard);
  if o.Query.Cqa.consistent == o.Query.Cqa.standard then 0.
  else float_of_int (Relational.Tuple.Set.cardinal o.Query.Cqa.consistent + 1)

(* The first request whose head column no index covers yet builds that
   column's index over the shared segment, kept for every later request:
   7.2 words per row of the queried relation on R's owner column (a list
   cell and an option per row, two bucket slots). *)
let index_words_per_row = 12.

let exists_s_query =
  Qsyntax.make ~head:[ "x" ] (Qsyntax.Exists ([ "y" ], Qsyntax.Atom (atom "S" [ v "x"; v "y" ])))

(* R's owner column: no check or plan join probes it *)
let owner_query =
  Qsyntax.make ~head:[ "o" ] (Qsyntax.Exists ([ "x" ], Qsyntax.Atom (atom "R" [ v "x"; v "o" ])))

let component_atoms (plan : Decompose.plan) =
  List.fold_left
    (fun n c -> n + Relational.Atom.Set.cardinal c.Decompose.atoms)
    0 plan.Decompose.components

(* [factorized_outcome]'s words per component atom on the E19 shape at
   [tuples] tuples, on the first request after planning: the conflicts
   are fixed, only the table grows.  The plan's closure joins probe S's
   first column, so its index is built before the request, as in a
   one-shot [cqanull cqa]; a head on R's owner column pays for one index
   on the first request and follows the conflicts on the next. *)
let recombine_words_at tuples =
  let w = Gen.scale_workload ~tuples () in
  let d = w.Gen.d and ics = w.Gen.ics in
  let plan = Decompose.plan d ics in
  let minimal =
    match Core.Engine.solve_components plan with
    | Ok r -> r.Core.Engine.solved
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "conflicts present" true (List.length minimal >= 2);
  let atoms = component_atoms plan in
  let conflict_words = recombine_words_per_atom *. float_of_int atoms in
  let request q =
    let standard = Query.Qeval.answers d q in
    let outcome, words =
      Alloc.allocated (fun () -> Query.Cqa.factorized_outcome ~plan ~minimal ~standard q)
    in
    (outcome, words -. consistent_copy_words outcome)
  in
  let outcome, words = request exists_s_query in
  Alcotest.(check int)
    (Printf.sprintf "%d tuples: repair count" tuples)
    (Decompose.count_product (List.map List.length minimal))
    outcome.Query.Cqa.repair_count;
  Alcotest.(check bool)
    (Printf.sprintf
       "%d tuples: factorized_outcome %.0f words beyond the consistent array <= %.0f per atom x %d atoms"
       tuples words recombine_words_per_atom atoms)
    true (words <= conflict_words);
  let rows = Instance.rel_cardinal d "R" in
  let _, owner_first = request owner_query in
  Alcotest.(check bool)
    (Printf.sprintf
       "%d tuples: first owner request %.0f words <= %.0f per atom x %d atoms + %.0f per row x %d rows"
       tuples owner_first recombine_words_per_atom atoms index_words_per_row rows)
    true
    (owner_first <= conflict_words +. (index_words_per_row *. float_of_int rows));
  let _, owner_next = request owner_query in
  Alcotest.(check bool)
    (Printf.sprintf "%d tuples: next owner request %.0f words <= %.0f per atom x %d atoms"
       tuples owner_next recombine_words_per_atom atoms)
    true (owner_next <= conflict_words);
  words /. float_of_int atoms

let test_allocation_guard () =
  let w = Gen.scale_workload ~tuples:20_000 () in
  let d = w.Gen.d and ics = w.Gen.ics and q = exists_s_query in
  (* one untimed pass each builds the lazy indexes and memos every later
     request shares *)
  ignore (Semantics.Nullsat.check d ics);
  let plan = Decompose.plan d ics in
  ignore (Query.Qeval.answers d q);
  let _, check = Alloc.allocated (fun () -> Semantics.Nullsat.check d ics) in
  Alcotest.(check bool)
    (Printf.sprintf "check %.0f words <= %.0f" check check_words)
    true (check <= check_words);
  let _, plan_words = Alloc.allocated (fun () -> Decompose.plan d ics) in
  let atoms = component_atoms plan in
  let bound = (1.2 *. check) +. (plan_words_per_atom *. float_of_int atoms) in
  Alcotest.(check bool)
    (Printf.sprintf "plan %.0f words <= 1.2 x check %.0f words + %.0f per atom x %d atoms"
       plan_words check plan_words_per_atom atoms)
    true (plan_words <= bound);
  let _, eval_words = Alloc.allocated (fun () -> Query.Qeval.answers d q) in
  Alcotest.(check bool)
    (Printf.sprintf "qeval %.0f words <= 1.5M" eval_words)
    true (eval_words <= 1_500_000.);
  (* a projection where duplicates dominate (12k join matches, 504
     answers): the matches' head tuples are kept until one sort *)
  let owners =
    let r = Qsyntax.Atom (atom "R" [ v "x"; v "o" ]) and s = Qsyntax.Atom (atom "S" [ v "c"; v "x" ]) in
    Qsyntax.make ~head:[ "o" ] (Qsyntax.Exists ([ "x"; "c" ], Qsyntax.And (r, s)))
  in
  let answers, owners_words = Alloc.allocated (fun () -> Query.Qeval.answers d owners) in
  Alcotest.(check bool) "duplicates dominate" true
    (20 * Relational.Tuple.Set.cardinal answers < Instance.rel_cardinal d "S");
  Alcotest.(check bool)
    (Printf.sprintf "projection %.0f words <= 1.0M" owners_words)
    true (owners_words <= 1_000_000.);
  (* beyond the consistent answers' array, recombination follows the
     conflicts: the same bound per component atom at 20k and at 80k
     tuples, and no growth with the table *)
  let small = recombine_words_at 20_000 and large = recombine_words_at 80_000 in
  Alcotest.(check bool)
    (Printf.sprintf "recombine words per atom at 80k (%.0f) <= 1.5 x at 20k (%.0f)"
       large small)
    true (large <= 1.5 *. small)

(* The first plan of a fresh instance, after its first check, builds
   once the indexes its closure joins probe and the check did not: both
   of S's column indexes, 9.9 words per tuple at 20k tuples and 10.9 at
   80k.  Its membership tests are binary searches and build no row
   index (R's and S's would add 12 words per tuple).  Nothing else in it
   grows with the table.  No insertion under these constraints reads
   Proposition 1's universe, so the plan folds no active domain; with
   that fold the first plan took 216 words per tuple at 20k tuples and
   243 at 80k. *)
let first_plan_words_per_tuple = 12.

let test_first_plan () =
  List.iter
    (fun tuples ->
      let w = Gen.scale_workload ~tuples () in
      let d = w.Gen.d and ics = w.Gen.ics in
      ignore (Semantics.Nullsat.check d ics);
      let plan, first = Alloc.allocated (fun () -> Decompose.plan d ics) in
      let _, check = Alloc.allocated (fun () -> Semantics.Nullsat.check d ics) in
      let atoms = component_atoms plan and n = Instance.cardinal d in
      let steady = (1.2 *. check) +. (plan_words_per_atom *. float_of_int atoms) in
      Alcotest.(check bool)
        (Printf.sprintf
           "%d tuples: first plan %.0f words <= 1.2 x check %.0f + %.0f per atom x \
            %d atoms + %.0f per tuple x %d tuples"
           tuples first check plan_words_per_atom atoms first_plan_words_per_tuple n)
        true
        (first <= steady +. (first_plan_words_per_tuple *. float_of_int n)))
    [ 20_000; 80_000 ]

(* The closure costs its conflicts: heavier FD clusters add component
   atoms, and the plan's words beyond its check grow with them, not with
   the FD matches among them.  Every FD match over D is already a
   violation of the check, so the closure joins no FD from an atom of D;
   rejoining them cost 2.8k, 4.3k and 6.1k words per component atom at
   weights 4, 8 and 12 (1.7k, 2.0k and 2.4k without). *)
let test_closure_across_weight () =
  let per_atom =
    List.map
      (fun weight ->
        let w = Gen.clusters_workload ~weight ~padding:10 ~k:12 () in
        let d = w.Gen.d and ics = w.Gen.ics in
        let plan = Decompose.plan d ics in
        let _, check = Alloc.allocated (fun () -> Semantics.Nullsat.check d ics) in
        let _, words = Alloc.allocated (fun () -> Decompose.plan d ics) in
        (weight, (words -. check) /. float_of_int (component_atoms plan)))
      [ 4; 8; 12 ]
  in
  let lo = List.fold_left (fun m (_, x) -> min m x) infinity per_atom
  and hi = List.fold_left (fun m (_, x) -> max m x) 0. per_atom in
  Alcotest.(check bool)
    (Printf.sprintf
       "(plan - check) words per component atom within 1.5x across weights (%s)"
       (String.concat ", "
          (List.map (fun (k, x) -> Printf.sprintf "weight %d: %.0f" k x) per_atom)))
    true
    (hi <= 1.5 *. lo)

(* Per-component support: k independent clusters cost k times one
   cluster.  Each weighted cluster's r_t pvs are kept satisfied by its own
   T(a_i) alone, so every component carries one support atom and grounds
   the same program at every k, and the plan allocates the same per
   component atom. *)
let test_linear_in_k () =
  let ground = ref None in
  let per_atom =
    List.map
      (fun k ->
        let w = Gen.clusters_workload ~weight:4 ~padding:10 ~k () in
        let d = w.Gen.d and ics = w.Gen.ics in
        let plan = Decompose.plan d ics in
        Alcotest.(check int) (Printf.sprintf "k=%d components" k) k
          (List.length plan.Decompose.components);
        List.iter
          (fun c ->
            Alcotest.(check int)
              (Printf.sprintf "k=%d: one support atom per component" k)
              1
              (Instance.cardinal c.Decompose.support);
            match Core.Engine.run (Decompose.base c) c.Decompose.ics with
            | Ok r -> (
                let n = r.Core.Engine.ground_atoms in
                match !ground with
                | None -> ground := Some n
                | Some first ->
                    Alcotest.(check int)
                      (Printf.sprintf "k=%d: ground atoms as at k=16" k)
                      first n)
            | Error e -> Alcotest.fail e)
          plan.Decompose.components;
        let _, words = Alloc.allocated (fun () -> Decompose.plan d ics) in
        let atoms =
          List.fold_left
            (fun n c -> n + Atom.Set.cardinal c.Decompose.atoms)
            0 plan.Decompose.components
        in
        (k, words /. float_of_int atoms))
      [ 16; 64; 256 ]
  in
  let lo = List.fold_left (fun m (_, x) -> min m x) infinity per_atom
  and hi = List.fold_left (fun m (_, x) -> max m x) 0. per_atom in
  Alcotest.(check bool)
    (Printf.sprintf "plan words per component atom within 1.5x across k (%s)"
       (String.concat ", "
          (List.map (fun (k, x) -> Printf.sprintf "k=%d: %.0f" k x) per_atom)))
    true
    (hi <= 1.5 *. lo)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "decompose"
    [
      ( "plan",
        [
          Alcotest.test_case "consistent instance" `Quick test_plan_consistent;
          Alcotest.test_case "clusters" `Quick test_plan_clusters;
          Alcotest.test_case "support atoms" `Quick test_plan_support_atoms;
          Alcotest.test_case "shared universe" `Quick test_components_share_universe;
          Alcotest.test_case "denial reached through a candidate" `Quick
            test_denial_through_candidate;
        ] );
      ( "differential",
        [
          Alcotest.test_case "paper examples" `Quick test_examples_differential;
          Alcotest.test_case "clusters" `Quick test_clusters_differential;
          Alcotest.test_case "exploration collapses" `Quick test_exploration_collapses;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "engine" `Quick test_engine_decomposed;
          Alcotest.test_case "cqa" `Quick test_cqa_decomposed;
        ] );
      ("qcheck", qcheck [ diff_repairs_test; diff_cqa_test; diff_core_answers_test ]);
      ( "oracle",
        [
          Alcotest.test_case "generated cases" `Quick test_oracle_generated;
          Alcotest.test_case "workloads" `Quick test_oracle_workloads;
          Alcotest.test_case "scenario files" `Quick test_oracle_scenarios;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "plan and recombine guard" `Quick test_allocation_guard;
          Alcotest.test_case "solve and plan linear in k" `Quick test_linear_in_k;
          Alcotest.test_case "first plan follows the conflicts" `Quick test_first_plan;
          Alcotest.test_case "closure words across FD weight" `Quick
            test_closure_across_weight;
        ] );
    ]
