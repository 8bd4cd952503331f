(* Tests for the repair semantics of Section 4 (Definitions 6-7,
   Examples 14-20, Proposition 1, Theorem 1). *)

module Value = Relational.Value
module Atom = Relational.Atom
module Instance = Relational.Instance
module Term = Ic.Term
module Patom = Ic.Patom
module Builtin = Ic.Builtin
module Constr = Ic.Constr
module Order = Repair.Order
module Enumerate = Repair.Enumerate
module Check = Repair_check
module Repd = Repair.Repd

let v = Term.var
let atom p ts = Patom.make p ts
let vn = Value.null
let vs = Value.str
let vi = Value.int

let instance = Alcotest.testable Instance.pp_inline Instance.equal

let check_repair_set name expected actual =
  let sort = List.sort Instance.compare in
  Alcotest.(check (list instance)) name (sort expected) (sort actual)

(* ------------------------------------------------------------------ *)
(* The <=_D order (Definition 6) *)

let test_order_example17 () =
  let d = Instance.of_list [ ("P", [ vs "a"; vn ]); ("P", [ vs "b"; vs "c" ]); ("R", [ vs "a"; vs "b" ]) ] in
  let d1 = Instance.add (Atom.make "R" [ vs "b"; vn ]) d in
  let d3 = Instance.add (Atom.make "R" [ vs "b"; vs "d" ]) d in
  Alcotest.(check bool) "null insertion preferred" true (Order.lt ~d d1 d3);
  Alcotest.(check bool) "not conversely" false (Order.leq ~d d3 d1)

let test_order_example16 () =
  let d = Instance.of_list [ ("Q", [ vs "a"; vs "b" ]); ("P", [ vs "a"; vs "c" ]) ] in
  let d1 = Instance.empty in
  let d2 = Instance.of_list [ ("P", [ vs "a"; vs "c" ]); ("Q", [ vs "a"; vn ]) ] in
  Alcotest.(check bool) "D2 not <= D1" false (Order.leq ~d d2 d1);
  Alcotest.(check bool) "D1 not <= D2" false (Order.leq ~d d1 d2)

let test_order_reflexive_on_delta () =
  (* Reflexivity requires the self-coverage disjunct of condition (b); see
     the discussion in Repair.Order. *)
  let d = Instance.of_list [ ("P", [ vs "a" ]) ] in
  let d' = Instance.of_list [ ("P", [ vs "a" ]); ("Q", [ vs "b"; vn ]) ] in
  Alcotest.(check bool) "reflexive" true (Order.leq ~d d' d');
  Alcotest.(check bool) "not strict with itself" false (Order.lt ~d d' d')

let test_order_junk_padding_beaten () =
  (* D ∪ {Q(a,null)} must beat D ∪ {Q(a,null), P(null)}: gratuitous all-null
     insertions are not repairs (cf. Example 15: "only two repairs"). *)
  let d = Instance.of_list [ ("P", [ vs "a" ]) ] in
  let good = Instance.add (Atom.make "Q" [ vs "a"; vn ]) d in
  let junk = Instance.add (Atom.make "P" [ vn ]) good in
  Alcotest.(check bool) "good < junk" true (Order.lt ~d good junk)

(* ------------------------------------------------------------------ *)
(* Example 14/15: Course-Student RIC repaired with null *)

let ex15_d =
  Instance.of_list
    [
      ("Course", [ vi 21; vs "C15" ]);
      ("Course", [ vi 34; vs "C18" ]);
      ("Student", [ vi 21; vs "Ann" ]);
      ("Student", [ vi 45; vs "Paul" ]);
    ]

let ex15_ric =
  Constr.generic
    ~ante:[ atom "Course" [ v "id"; v "code" ] ]
    ~cons:[ atom "Student" [ v "id"; v "name" ] ]
    ()

let test_example15 () =
  let repairs = Enumerate.repairs ex15_d [ ex15_ric ] in
  let repair1 = Instance.remove (Atom.make "Course" [ vi 34; vs "C18" ]) ex15_d in
  let repair2 = Instance.add (Atom.make "Student" [ vi 34; vn ]) ex15_d in
  check_repair_set "exactly the two repairs of Example 15" [ repair1; repair2 ] repairs

(* ------------------------------------------------------------------ *)
(* Example 16 *)

let ex16_d = Instance.of_list [ ("Q", [ vs "a"; vs "b" ]); ("P", [ vs "a"; vs "c" ]) ]

let ex16_ics =
  [
    Constr.generic ~ante:[ atom "P" [ v "x"; v "y" ] ] ~cons:[ atom "Q" [ v "x"; v "z" ] ] ();
    Constr.generic
      ~ante:[ atom "Q" [ v "x"; v "y" ] ]
      ~phi:[ Builtin.neq (v "y") (Term.str "b") ]
      ();
  ]

let test_example16 () =
  let repairs = Enumerate.repairs ex16_d ex16_ics in
  let d1 = Instance.empty in
  let d2 = Instance.of_list [ ("P", [ vs "a"; vs "c" ]); ("Q", [ vs "a"; vn ]) ] in
  check_repair_set "two repairs" [ d1; d2 ] repairs

(* ------------------------------------------------------------------ *)
(* Example 17 *)

let test_example17 () =
  let d =
    Instance.of_list
      [ ("P", [ vs "a"; vn ]); ("P", [ vs "b"; vs "c" ]); ("R", [ vs "a"; vs "b" ]) ]
  in
  let ric =
    Constr.generic ~ante:[ atom "P" [ v "x"; v "y" ] ] ~cons:[ atom "R" [ v "x"; v "z" ] ] ()
  in
  let repairs = Enumerate.repairs d [ ric ] in
  let d1 = Instance.add (Atom.make "R" [ vs "b"; vn ]) d in
  let d2 = Instance.of_list [ ("P", [ vs "a"; vn ]); ("R", [ vs "a"; vs "b" ]) ] in
  check_repair_set "two repairs" [ d1; d2 ] repairs;
  (* R(b,d) insertion is consistent but not minimal *)
  let d3 = Instance.add (Atom.make "R" [ vs "b"; vs "d" ]) d in
  Alcotest.(check bool) "D3 consistent" true (Semantics.Nullsat.consistent d3 [ ric ]);
  Alcotest.(check bool) "D3 not a repair" false (Check.is_repair ~d ~ics:[ ric ] d3)

(* ------------------------------------------------------------------ *)
(* Example 18: RIC-cyclic set, still finitely many finite repairs *)

let ex18_d =
  Instance.of_list [ ("P", [ vs "a"; vs "b" ]); ("P", [ vn; vs "a" ]); ("T", [ vs "c" ]) ]

let ex18_ics =
  [
    Constr.generic ~ante:[ atom "P" [ v "x"; v "y" ] ] ~cons:[ atom "T" [ v "x" ] ] ();
    Constr.generic ~ante:[ atom "T" [ v "x" ] ] ~cons:[ atom "P" [ v "y"; v "x" ] ] ();
  ]

let test_example18 () =
  let repairs = Enumerate.repairs ex18_d ex18_ics in
  let base = ex18_d in
  let d1 = Instance.add (Atom.make "P" [ vn; vs "c" ]) (Instance.add (Atom.make "T" [ vs "a" ]) base) in
  let d2 =
    Instance.of_list [ ("P", [ vs "a"; vs "b" ]); ("P", [ vn; vs "a" ]); ("T", [ vs "a" ]) ]
  in
  let d3 = Instance.of_list [ ("P", [ vn; vs "a" ]); ("T", [ vs "c" ]); ("P", [ vn; vs "c" ]) ] in
  let d4 = Instance.of_list [ ("P", [ vn; vs "a" ]) ] in
  check_repair_set "the four repairs of Example 18" [ d1; d2; d3; d4 ] repairs;
  (* D5 of the paper satisfies IC but is beaten by D1 *)
  let d5 =
    Instance.add (Atom.make "P" [ vs "c"; vs "c" ]) (Instance.add (Atom.make "T" [ vs "a" ]) base)
  in
  Alcotest.(check bool) "D5 consistent" true (Semantics.Nullsat.consistent d5 ex18_ics);
  Alcotest.(check bool) "D1 < D5" true (Order.lt ~d:ex18_d d1 d5)

(* ------------------------------------------------------------------ *)
(* Example 19: key + foreign key + NNC *)

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
      Ic.Builder.foreign_key ~child:"S" ~child_arity:2 ~child_cols:[ 2 ] ~parent:"R"
        ~parent_arity:2 ~parent_cols:[ 1 ] ();
      Constr.not_null ~pred:"R" ~arity:2 ~pos:1 ();
    ]

let test_example19 () =
  let repairs = Enumerate.repairs ex19_d ex19_ics in
  let rfnull = Atom.make "R" [ vs "f"; vn ] in
  let d1 =
    Instance.add rfnull (Instance.remove (Atom.make "R" [ vs "a"; vs "c" ]) ex19_d)
  in
  let d2 =
    Instance.add rfnull (Instance.remove (Atom.make "R" [ vs "a"; vs "b" ]) ex19_d)
  in
  let d3 = Instance.of_list [ ("R", [ vs "a"; vs "b" ]); ("S", [ vn; vs "a" ]) ] in
  let d4 = Instance.of_list [ ("R", [ vs "a"; vs "c" ]); ("S", [ vn; vs "a" ]) ] in
  check_repair_set "the four repairs of Example 19" [ d1; d2; d3; d4 ] repairs

(* ------------------------------------------------------------------ *)
(* Example 20: conflicting NNC *)

let ex20_d = Instance.of_list [ ("P", [ vs "a" ]); ("P", [ vs "b" ]); ("Q", [ vs "b"; vs "c" ]) ]

let ex20_ric =
  Constr.generic ~ante:[ atom "P" [ v "x" ] ] ~cons:[ atom "Q" [ v "x"; v "y" ] ] ()

let ex20_nnc = Constr.not_null ~pred:"Q" ~arity:2 ~pos:2 ()

let test_example20 () =
  let ics = [ ex20_ric; ex20_nnc ] in
  Alcotest.(check int) "conflicting NNC detected" 1
    (List.length (Repd.conflicting_nncs ics));
  let repairs = Enumerate.repairs ex20_d ics in
  let deletion = Instance.of_list [ ("P", [ vs "b" ]); ("Q", [ vs "b"; vs "c" ]) ] in
  (* arbitrary-constant insertions over the finite universe {a, b, c} *)
  let insertion mu = Instance.add (Atom.make "Q" [ vs "a"; mu ]) ex20_d in
  check_repair_set "deletion + one insertion per universe constant"
    [ deletion; insertion (vs "a"); insertion (vs "b"); insertion (vs "c") ]
    repairs;
  (* Rep_d prefers the deletion repair *)
  let repairs_d = Repd.repairs_d ex20_d ics in
  check_repair_set "Rep_d keeps only the deletion repair" [ deletion ] repairs_d

let test_repd_coincides_when_non_conflicting () =
  let reps = Enumerate.repairs ex18_d ex18_ics in
  let reps_d = Repd.repairs_d ex18_d ex18_ics in
  check_repair_set "Rep = Rep_d without conflicting NNCs" reps reps_d

(* ------------------------------------------------------------------ *)
(* Proposition 1 and consistency of repairs *)

let test_consistent_instance_is_its_own_repair () =
  let d = Instance.of_list [ ("Course", [ vi 21; vs "C15" ]); ("Student", [ vi 21; vs "Ann" ]) ] in
  check_repair_set "consistent D repairs to itself" [ d ]
    (Enumerate.repairs d [ ex15_ric ])

let test_proposition1_domain () =
  let repairs = Enumerate.repairs ex18_d ex18_ics in
  let universe = Repair.Candidates.universe ex18_d ex18_ics in
  List.iter
    (fun r ->
      List.iter
        (fun value ->
          Alcotest.(check bool)
            (Fmt.str "%a within universe" Value.pp value)
            true
            (List.exists (Value.equal value) universe))
        (Instance.active_domain r))
    repairs

let test_repairs_nonempty () =
  (* Proposition 1(b): repairs always exist for non-conflicting sets *)
  List.iter
    (fun (d, ics) ->
      Alcotest.(check bool) "nonempty" true (Enumerate.repairs d ics <> []))
    [ (ex15_d, [ ex15_ric ]); (ex16_d, ex16_ics); (ex18_d, ex18_ics); (ex19_d, ex19_ics) ]

(* ------------------------------------------------------------------ *)
(* Theorem 1: repair checking *)

let test_check () =
  let repair1 = Instance.remove (Atom.make "Course" [ vi 34; vs "C18" ]) ex15_d in
  Alcotest.(check bool) "deletion repair accepted" true
    (Check.is_repair ~d:ex15_d ~ics:[ ex15_ric ] repair1);
  Alcotest.(check bool) "original instance rejected (inconsistent)" false
    (Check.is_repair ~d:ex15_d ~ics:[ ex15_ric ] ex15_d);
  (* over-deletion: consistent but not minimal *)
  let too_much = Instance.of_list [ ("Student", [ vi 21; vs "Ann" ]); ("Student", [ vi 45; vs "Paul" ]) ] in
  Alcotest.(check bool) "over-deletion rejected" false
    (Check.is_repair ~d:ex15_d ~ics:[ ex15_ric ] too_much);
  (* out-of-universe value *)
  let foreign = Instance.add (Atom.make "Student" [ vi 34; vs "Zoe" ]) ex15_d in
  Alcotest.(check bool) "Proposition 1 bound enforced" true
    (Result.is_error (Check.necessary_conditions ~d:ex15_d ~ics:[ ex15_ric ] foreign))

(* ------------------------------------------------------------------ *)
(* Cross-check against the brute-force reference on tiny instances *)

let test_bruteforce_ric () =
  (* P(x) -> exists y. Q(x,y) over the universe {a, null}: 6 base atoms. *)
  let d = Instance.of_list [ ("P", [ vs "a" ]) ] in
  let ics =
    [ Constr.generic ~ante:[ atom "P" [ v "x" ] ] ~cons:[ atom "Q" [ v "x"; v "y" ] ] () ]
  in
  let brute = Bruteforce.repairs ~schema:[ ("P", 1); ("Q", 2) ] d ics in
  check_repair_set "enumerator = brute force (RIC)" brute (Enumerate.repairs d ics);
  check_repair_set "delete or null-insert"
    [ Instance.empty; Instance.add (Atom.make "Q" [ vs "a"; vn ]) d ]
    brute

let test_bruteforce_tiny_denial () =
  let d = Instance.of_list [ ("P", [ vs "a"; vs "a" ]); ("P", [ vs "a"; vs "b" ]) ] in
  let ics = [ Ic.Builder.denial [ atom "P" [ v "x"; v "x" ] ] ] in
  let brute = Bruteforce.repairs ~schema:[ ("P", 2) ] d ics in
  check_repair_set "denial repair" brute (Enumerate.repairs d ics);
  check_repair_set "exactly one repair"
    [ Instance.of_list [ ("P", [ vs "a"; vs "b" ]) ] ]
    (Enumerate.repairs d ics)

(* Random cross-check on unary schemas small enough for the power-set
   reference: universe at most {a, b, null}, base 6 atoms. *)
let tiny_value_gen =
  QCheck.Gen.(
    frequency
      [ (1, return Value.null); (4, map (fun c -> Value.str (String.make 1 c)) (char_range 'a' 'b')) ])

let tiny_inst_gen =
  QCheck.Gen.(
    let atom_gen =
      let* p = oneofl [ "P"; "T" ] in
      map (fun value -> Atom.make p [ value ]) tiny_value_gen
    in
    map Instance.of_atoms (list_size (int_range 0 4) atom_gen))

let prop_bruteforce_agrees =
  QCheck.Test.make ~name:"enumerator = brute-force reference" ~count:60
    (QCheck.make ~print:(Fmt.str "%a" Instance.pp_inline) tiny_inst_gen)
    (fun d ->
      let ics =
        [ Constr.generic ~ante:[ atom "P" [ v "x" ] ] ~cons:[ atom "T" [ v "x" ] ] () ]
      in
      let sort = List.sort Instance.compare in
      let brute = Bruteforce.repairs ~schema:[ ("P", 1); ("T", 1) ] d ics in
      let enum = Enumerate.repairs d ics in
      List.equal Instance.equal (sort brute) (sort enum))

(* ------------------------------------------------------------------ *)
(* General existential constraints (Example 1(c) shape): outside the repair
   programs' fragment but handled by the model-theoretic engine *)

let test_general_existential_repairs () =
  (* S(x) -> exists y. (R(x, y) \/ T(x, y, y)) *)
  let ic =
    Constr.generic
      ~ante:[ atom "S" [ v "x" ] ]
      ~cons:[ atom "R" [ v "x"; v "y" ]; atom "T" [ v "x"; v "z"; v "z" ] ]
      ()
  in
  Alcotest.(check bool) "general existential" true
    (Ic.Classify.classify ic = Ic.Classify.GeneralExistential);
  let d = Instance.of_list [ ("S", [ vs "a" ]) ] in
  let repairs = Enumerate.repairs d [ ic ] in
  (* delete S(a), insert R(a, null), or insert T(a, null, null) *)
  check_repair_set "three repairs"
    [
      Instance.empty;
      Instance.add (Atom.make "R" [ vs "a"; vn ]) d;
      Instance.add (Atom.make "T" [ vs "a"; vn; vn ]) d;
    ]
    repairs;
  (* and the repair-program engine declines politely *)
  Alcotest.(check bool) "program engine rejects" true
    (Result.is_error (Core.Engine.repairs d [ ic ]))

let test_candidates_universe () =
  let d = Instance.of_list [ ("P", [ vs "a"; vn ]) ] in
  let ic =
    Constr.generic
      ~ante:[ atom "P" [ v "x"; v "y" ] ]
      ~phi:[ Builtin.neq (v "y") (Term.str "b") ]
      ()
  in
  let universe = Repair.Candidates.universe d [ ic ] in
  (* adom {a, null} ∪ const(IC) {b} ∪ {null} *)
  Alcotest.(check int) "universe size" 3 (List.length universe);
  Alcotest.(check bool) "null present" true
    (List.exists Value.is_null universe);
  Alcotest.(check bool) "constraint constant present" true
    (List.exists (Value.equal (vs "b")) universe);
  Alcotest.(check int) "non-null universe" 2
    (List.length (Repair.Candidates.universe_non_null d [ ic ]))

(* ------------------------------------------------------------------ *)
(* Budgets and exposed internals *)

let test_enumerate_budget () =
  (* a workload with many interacting violations blows a tiny state budget *)
  let d =
    Instance.of_list
      (List.init 6 (fun i -> ("Course", [ vi i; vs "c" ])))
  in
  let budget = Budget.start (Budget.make ~max_states:3 ()) in
  Alcotest.(check bool) "budget raises" true
    (try
       ignore (Enumerate.repairs ~budget d [ ex15_ric ]);
       false
     with Budget.Exhausted (Budget.States 3) -> true)

let test_consistent_states_superset () =
  let states = Enumerate.search ex15_d [ ex15_ric ] in
  let repairs = Enumerate.repairs ex15_d [ ex15_ric ] in
  Alcotest.(check bool) "every repair among the consistent states" true
    (List.for_all (fun r -> List.exists (Instance.equal r) states) repairs)

(* Eight independent key conflicts: 3^8 states, every successor reached
   from several parents.  The search tests a successor against the seen
   states before it recomputes the touched constraints' violations:
   rechecking every successor would be 34,992 rechecks for 6,561 states,
   11.6k words per state.  The returned states keep their order (the
   digest of their printed list). *)
let test_search_skips_seen_successors () =
  let d =
    Instance.of_list
      (List.concat
         (List.init 8 (fun i ->
              let k = vs (Printf.sprintf "k%d" i) in
              [ ("R", [ k; vs (Printf.sprintf "v%d" i) ]);
                ("R", [ k; vs (Printf.sprintf "w%d" i) ]) ])))
  in
  let key =
    Constr.generic
      ~ante:[ atom "R" [ v "X"; v "Y" ]; atom "R" [ v "X"; v "Z" ] ]
      ~cons:[]
      ~phi:[ Builtin.eq (v "Y") (v "Z") ]
      ()
  in
  let explored = ref 0 in
  let states, words =
    Alloc.allocated (fun () -> Enumerate.search ~explored d [ key ])
  in
  Alcotest.(check int) "states explored" 6561 !explored;
  Alcotest.(check int) "consistent states" 256 (List.length states);
  Alcotest.(check string) "order of the consistent states"
    "cec82adb4d0864a75273c9977547c942"
    (Digest.to_hex
       (Digest.string
          (String.concat ";" (List.map (Fmt.str "%a" Instance.pp_inline) states))));
  let per_state = words /. float_of_int !explored in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per explored state <= 9000" per_state)
    true (per_state <= 9000.)

let test_fixes_exposed () =
  let universe = Repair.Candidates.universe ex15_d [ ex15_ric ] in
  match Semantics.Nullsat.check ex15_d [ ex15_ric ] with
  | [ viol ] ->
      let actions = Enumerate.fixes ~universe ~nnc_positions:[] ex15_d viol in
      Alcotest.(check int) "delete + null-insert" 2 (List.length actions);
      Alcotest.(check bool) "one deletion" true
        (List.exists (function Enumerate.Delete _ -> true | _ -> false) actions);
      Alcotest.(check bool) "one insertion" true
        (List.exists
           (function
             | Enumerate.Insert a -> Relational.Atom.has_null a
             | Enumerate.Delete _ -> false)
           actions)
  | l -> Alcotest.failf "expected one violation, got %d" (List.length l)

let test_minimal_among_dedup () =
  let d = Instance.of_list [ ("P", [ vs "a" ]) ] in
  let x = Instance.of_list [ ("P", [ vs "a" ]); ("Q", [ vs "b" ]) ] in
  Alcotest.(check int) "duplicates removed" 1
    (List.length (Order.minimal_among ~d [ x; x; x ]))

(* The quadratic filter polls the deadline: a passed one stops it, while
   a budget with time left changes nothing. *)
let test_minimal_among_deadline () =
  let d = Instance.of_list [ ("P", [ vs "a" ]) ] in
  let candidates =
    List.init 3 (fun i -> Instance.of_list [ ("P", [ vs "a" ]); ("Q", [ vi i ]) ])
  in
  let passed = Budget.start (Budget.make ~timeout_ms:0 ()) in
  Unix.sleepf 0.002;
  (match Order.minimal_among ~budget:passed ~d candidates with
  | _ -> Alcotest.fail "finished past its deadline"
  | exception Budget.Exhausted (Budget.Deadline 0) -> ()
  | exception Budget.Exhausted e ->
      Alcotest.failf "wrong marker: %a" Budget.pp_exhausted e);
  let ample = Budget.start (Budget.make ~timeout_ms:60_000 ()) in
  Alcotest.(check int) "ample deadline" 3
    (List.length (Order.minimal_among ~budget:ample ~d candidates))

(* ------------------------------------------------------------------ *)
(* Properties *)

let value_gen =
  QCheck.Gen.(
    frequency
      [ (1, return Value.null); (4, map (fun c -> Value.str (String.make 1 c)) (char_range 'a' 'c')) ])

let inst_gen =
  QCheck.Gen.(
    let atom_gen =
      let* p, arity = oneofl [ ("P", 2); ("R", 2); ("T", 1) ] in
      map (fun vs -> Atom.make p vs) (list_size (return arity) value_gen)
    in
    map Instance.of_atoms (list_size (int_range 0 5) atom_gen))

let inst_arb = QCheck.make ~print:(Fmt.str "%a" Instance.pp_inline) inst_gen

let small_ics =
  [
    Constr.generic ~ante:[ atom "P" [ v "x"; v "y" ] ] ~cons:[ atom "T" [ v "x" ] ] ();
    Constr.generic ~ante:[ atom "T" [ v "x" ] ] ~cons:[ atom "R" [ v "x"; v "z" ] ] ();
  ]

let prop_check_accepts_exactly_repairs =
  QCheck.Test.make ~name:"is_repair accepts repairs and rejects perturbations"
    ~count:40 inst_arb (fun d ->
      let reps = Enumerate.repairs d small_ics in
      List.for_all (fun r -> Check.is_repair ~d ~ics:small_ics r) reps
      &&
      (* perturb each repair by dropping one atom: never again a repair of
         the same D unless it happens to equal another repair *)
      List.for_all
        (fun r ->
          List.for_all
            (fun a ->
              let r' = Instance.remove a r in
              (not (Check.is_repair ~d ~ics:small_ics r'))
              || List.exists (Instance.equal r') reps)
            (Instance.atoms r))
        reps)


let prop_repairs_consistent =
  QCheck.Test.make ~name:"every repair satisfies IC" ~count:60 inst_arb (fun d ->
      List.for_all
        (fun r -> Semantics.Nullsat.consistent r small_ics)
        (Enumerate.repairs d small_ics))

let prop_repairs_minimal =
  QCheck.Test.make ~name:"repairs are pairwise <=_D-incomparable" ~count:40 inst_arb
    (fun d ->
      let reps = Enumerate.repairs d small_ics in
      List.for_all
        (fun r1 -> List.for_all (fun r2 -> Instance.equal r1 r2 || not (Order.lt ~d r1 r2)) reps)
        reps)

let prop_consistent_fixpoint =
  QCheck.Test.make ~name:"consistent D has itself as only repair" ~count:60 inst_arb
    (fun d ->
      QCheck.assume (Semantics.Nullsat.consistent d small_ics);
      match Enumerate.repairs d small_ics with
      | [ r ] -> Instance.equal r d
      | _ -> false)

let prop_order_transitive =
  QCheck.Test.make ~name:"<=_D transitive on sampled triples" ~count:60
    (QCheck.make QCheck.Gen.(quad inst_gen inst_gen inst_gen inst_gen))
    (fun (d, a, b, c) ->
      if Order.leq ~d a b && Order.leq ~d b c then Order.leq ~d a c else true)

(* [Order.minimal_among] computes each candidate's delta once and tests
   Definition 6 on atom sets; the pairwise filter over the instance-level
   [leq] it replaced is the oracle, on the consistent states the search
   reaches for random and routed cases. *)
let pairwise_leq ~d d' d'' =
  let delta' = Order.delta d d' and delta'' = Order.delta d d'' in
  Instance.fold
    (fun a ok ->
      ok
      &&
      if not (Atom.has_null a) then Instance.mem a delta''
      else
        Instance.mem a delta''
        || Instance.fold
             (fun b found ->
               found
               || (Order.matches_non_null_positions a b && not (Instance.mem b delta')))
             delta'' false)
    delta' true

let pairwise_minimal ~d candidates =
  let lt x y = pairwise_leq ~d x y && not (pairwise_leq ~d y x) in
  let uniq = List.sort_uniq Instance.compare candidates in
  List.filter (fun x -> not (List.exists (fun y -> lt y x) uniq)) uniq

let prop_minimal_among_pairwise =
  QCheck.Test.make ~name:"minimal_among = pairwise <=_D filter" ~count:300
    (QCheck.make QCheck.Gen.(int_range 1 100_000))
    (fun seed ->
      let w =
        if seed mod 2 = 0 then Workload.Gen.route_case ~seed ()
        else Workload.Gen.random_case ~seed ()
      in
      let d = w.Workload.Gen.d and ics = w.Workload.Gen.ics in
      let budget = Budget.start (Budget.make ~max_states:5_000 ()) in
      match Enumerate.search ~budget d ics with
      | states ->
          List.equal Instance.equal (Order.minimal_among ~d states)
            (pairwise_minimal ~d states)
      | exception Budget.Exhausted _ -> QCheck.assume_fail ())

(* ... and on arbitrary candidate lists, whose null-carrying deltas cover
   each other through condition (b) far more often than repairs do *)
let prop_minimal_among_random =
  QCheck.Test.make ~name:"minimal_among = pairwise <=_D filter, random candidates"
    ~count:500
    (QCheck.make
       ~print:(fun (d, cs) ->
         Fmt.str "%a@.%a" Instance.pp_inline d Fmt.(list ~sep:cut Instance.pp_inline) cs)
       QCheck.Gen.(pair inst_gen (list_size (int_range 1 8) inst_gen)))
    (fun (d, candidates) ->
      List.equal Instance.equal (Order.minimal_among ~d candidates)
        (pairwise_minimal ~d candidates))

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "repair"
    [
      ( "order",
        [
          Alcotest.test_case "example 17 preference" `Quick test_order_example17;
          Alcotest.test_case "example 16 incomparable" `Quick test_order_example16;
          Alcotest.test_case "reflexive" `Quick test_order_reflexive_on_delta;
          Alcotest.test_case "junk padding beaten" `Quick test_order_junk_padding_beaten;
        ] );
      ( "paper-examples",
        [
          Alcotest.test_case "example 15" `Quick test_example15;
          Alcotest.test_case "example 16" `Quick test_example16;
          Alcotest.test_case "example 17" `Quick test_example17;
          Alcotest.test_case "example 18 (cyclic)" `Quick test_example18;
          Alcotest.test_case "example 19" `Quick test_example19;
          Alcotest.test_case "example 20 (conflicting NNC)" `Quick test_example20;
          Alcotest.test_case "Rep_d = Rep when non-conflicting" `Quick
            test_repd_coincides_when_non_conflicting;
        ] );
      ( "proposition-1",
        [
          Alcotest.test_case "consistent fixpoint" `Quick
            test_consistent_instance_is_its_own_repair;
          Alcotest.test_case "domain bound" `Quick test_proposition1_domain;
          Alcotest.test_case "repairs nonempty" `Quick test_repairs_nonempty;
        ] );
      ("check", [ Alcotest.test_case "theorem 1 checker" `Quick test_check ]);
      ( "internals",
        [
          Alcotest.test_case "general existential" `Quick test_general_existential_repairs;
          Alcotest.test_case "candidates universe" `Quick test_candidates_universe;
          Alcotest.test_case "enumerate budget" `Quick test_enumerate_budget;
          Alcotest.test_case "consistent states superset" `Quick
            test_consistent_states_superset;
          Alcotest.test_case "search skips seen successors" `Quick
            test_search_skips_seen_successors;
          Alcotest.test_case "fixes" `Quick test_fixes_exposed;
          Alcotest.test_case "minimal_among dedup" `Quick test_minimal_among_dedup;
          Alcotest.test_case "minimal_among deadline" `Quick
            test_minimal_among_deadline;
        ] );
      ( "bruteforce",
        [
          Alcotest.test_case "RIC cross-check" `Quick test_bruteforce_ric;
          Alcotest.test_case "tiny denial" `Quick test_bruteforce_tiny_denial;
        ]
        @ qcheck [ prop_bruteforce_agrees ] );
      ( "properties",
        qcheck
          [
            prop_repairs_consistent;
            prop_check_accepts_exactly_repairs;
            prop_repairs_minimal;
            prop_consistent_fixpoint;
            prop_order_transitive;
            prop_minimal_among_pairwise;
            prop_minimal_among_random;
          ] );
    ]
