(* Tests for IC satisfaction semantics: the paper's |=_N (Definitions 4-5,
   Examples 4-13) and the baseline semantics it is compared against. *)

module Value = Relational.Value
module Instance = Relational.Instance
module Term = Ic.Term
module Patom = Ic.Patom
module Builtin = Ic.Builtin
module Constr = Ic.Constr
module Nullsat = Semantics.Nullsat
module Classic = Semantics.Classic
module Liberal = Semantics.Liberal
module Sqlmatch = Semantics.Sqlmatch
module Report = Semantics.Report

let v = Term.var
let atom p ts = Patom.make p ts
let vn = Value.null
let vs = Value.str
let vi = Value.int

let sat = Nullsat.satisfies
let sat_lit = Nullsat.satisfies_literal

(* ------------------------------------------------------------------ *)
(* Example 4: psi1 : P(x,y,z) -> R(y,z), D = {P(a,b,null)} *)

let ex4_d = Instance.of_list [ ("P", [ vs "a"; vs "b"; vn ]) ]

let ex4_psi1 =
  Constr.generic
    ~ante:[ atom "P" [ v "x"; v "y"; v "z" ] ]
    ~cons:[ atom "R" [ v "y"; v "z" ] ]
    ()

let ex4_psi2 =
  Constr.generic
    ~ante:[ atom "P" [ v "x"; v "y"; v "z" ] ]
    ~cons:[ atom "R" [ v "x"; v "y" ] ]
    ()

let test_example4 () =
  (* (a) liberal [10]: consistent, null anywhere in the tuple *)
  Alcotest.(check bool) "liberal psi1" true (Liberal.satisfies ex4_d ex4_psi1);
  Alcotest.(check bool) "liberal psi2" true (Liberal.satisfies ex4_d ex4_psi2);
  (* (b) the paper's semantics agrees with simple match on psi1: null in a
     relevant attribute (z at P[3]) *)
  Alcotest.(check bool) "|=_N psi1" true (sat ex4_d ex4_psi1);
  (* psi2's relevant attributes are P[1], P[2]: no null there, R(a,b) missing *)
  Alcotest.(check bool) "|=_N psi2 violated" false (sat ex4_d ex4_psi2);
  (* classic FO: both violated (null is just a constant, R is empty) *)
  Alcotest.(check bool) "classic psi1" false (Classic.satisfies ex4_d ex4_psi1);
  Alcotest.(check bool) "classic psi2" false (Classic.satisfies ex4_d ex4_psi2);
  (* SQL match semantics on the FK shape of psi1 *)
  (match Sqlmatch.fk_of_ric ex4_psi1 with
  | None -> Alcotest.fail "psi1 should be FK-shaped"
  | Some fk ->
      Alcotest.(check bool) "simple ok" true (Sqlmatch.satisfies Sqlmatch.Simple ex4_d fk);
      Alcotest.(check bool) "partial violated" false
        (Sqlmatch.satisfies Sqlmatch.Partial ex4_d fk);
      Alcotest.(check bool) "full violated" false
        (Sqlmatch.satisfies Sqlmatch.Full ex4_d fk));
  ()

(* ------------------------------------------------------------------ *)
(* Example 5: Course/Exp foreign key with simple match. *)

let ex5_d =
  Instance.of_list
    [
      ("Course", [ vs "CS27"; vi 21; vs "W04" ]);
      ("Course", [ vs "CS18"; vi 34; vn ]);
      ("Course", [ vs "CS50"; vn; vs "W05" ]);
      ("Exp", [ vi 21; vs "CS27"; vi 3 ]);
      ("Exp", [ vi 34; vs "CS18"; vn ]);
      ("Exp", [ vi 45; vs "CS32"; vi 2 ]);
    ]

(* forall x y z (Course(x,y,z) -> exists w Exp(y,x,w)) *)
let ex5_ric =
  Constr.generic
    ~ante:[ atom "Course" [ v "x"; v "y"; v "z" ] ]
    ~cons:[ atom "Exp" [ v "y"; v "x"; v "w" ] ]
    ()

let test_example5 () =
  Alcotest.(check bool) "DB2 accepts (simple match ~ |=_N)" true (sat ex5_d ex5_ric);
  Alcotest.(check bool) "literal Definition 4 agrees" true (sat_lit ex5_d ex5_ric);
  (* inserting Course(CS41, 18, null) is rejected: 18 has no Exp tuple *)
  let d' = Instance.add (Relational.Atom.make "Course" [ vs "CS41"; vi 18; vn ]) ex5_d in
  Alcotest.(check bool) "insertion rejected" false (sat d' ex5_ric);
  (* partial and full match reject the original database *)
  match Sqlmatch.fk_of_ric ex5_ric with
  | None -> Alcotest.fail "FK-shaped RIC expected"
  | Some fk ->
      Alcotest.(check bool) "partial rejects" false
        (Sqlmatch.satisfies Sqlmatch.Partial ex5_d fk);
      Alcotest.(check bool) "full rejects" false
        (Sqlmatch.satisfies Sqlmatch.Full ex5_d fk)

(* ------------------------------------------------------------------ *)
(* Example 6: single-row check constraint Emp(id,name,salary) -> salary > 100 *)

let ex6_ic =
  Constr.generic
    ~ante:[ atom "Emp" [ v "i"; v "n"; v "s" ] ]
    ~phi:[ Builtin.cmp Builtin.Gt (Builtin.evar "s") (Builtin.eint 100) ]
    ()

let test_example6 () =
  let d =
    Instance.of_list
      [ ("Emp", [ vi 32; vn; vi 1000 ]); ("Emp", [ vi 41; vs "Paul"; vn ]) ]
  in
  Alcotest.(check bool) "DB2 accepts" true (sat d ex6_ic);
  (* (32, null, 50) could not be inserted: salary 50 fails the check *)
  let d' = Instance.add (Relational.Atom.make "Emp" [ vi 32; vn; vi 50 ]) d in
  Alcotest.(check bool) "low salary violates" false (sat d' ex6_ic)

(* ------------------------------------------------------------------ *)
(* Example 8: multi-row check on Person. *)

let ex8_ic =
  Constr.generic
    ~ante:
      [
        atom "Person" [ v "x"; v "y"; v "z"; v "w" ];
        atom "Person" [ v "z"; v "s"; v "t"; v "u" ];
      ]
    ~phi:
      [ Builtin.cmp Builtin.Gt (Builtin.evar "u") (Builtin.shift (Builtin.evar "w") 15) ]
    ()

let test_example8 () =
  let d =
    Instance.of_list
      [
        ("Person", [ vs "Lee"; vs "Rod"; vs "Mary"; vi 27 ]);
        ("Person", [ vs "Rod"; vs "Joe"; vs "Tess"; vi 55 ]);
        ("Person", [ vs "Mary"; vs "Adam"; vs "Ann"; vn ]);
      ]
  in
  (* Lee-Mary join: u = null -> unknown -> consistent *)
  Alcotest.(check bool) "consistent (u = null)" true (sat d ex8_ic);
  Alcotest.(check bool) "literal agrees" true (sat_lit d ex8_ic);
  (* making Mary 30 would violate: 30 > 27 + 15 is false *)
  let d' =
    Instance.add
      (Relational.Atom.make "Person" [ vs "Mary"; vs "Adam"; vs "Ann"; vi 30 ])
      (Instance.remove (Relational.Atom.make "Person" [ vs "Mary"; vs "Adam"; vs "Ann"; vn ]) d)
  in
  Alcotest.(check bool) "age 30 violates" false (sat d' ex8_ic)

(* ------------------------------------------------------------------ *)
(* Example 9: Course(x,y,z) -> Employee(y,z); referenced side may hold null. *)

let test_example9 () =
  let d =
    Instance.of_list
      [ ("Course", [ vs "CS18"; vs "W04"; vi 34 ]); ("Employee", [ vs "W04"; vn ]) ]
  in
  let ic =
    Constr.generic
      ~ante:[ atom "Course" [ v "x"; v "y"; v "z" ] ]
      ~cons:[ atom "Employee" [ v "y"; v "z" ] ]
      ()
  in
  (* (W04, 34) provides more information than (W04, null): inconsistent *)
  Alcotest.(check bool) "inconsistent" false (sat d ic);
  Alcotest.(check bool) "literal agrees" false (sat_lit d ic)

(* ------------------------------------------------------------------ *)
(* Example 11 *)

let ex11_a =
  Constr.generic
    ~ante:[ atom "P" [ v "x"; v "y"; v "z" ] ]
    ~cons:[ atom "R" [ v "x"; v "y" ] ]
    ()

let ex11_b =
  Constr.generic
    ~ante:[ atom "T" [ v "x" ] ]
    ~cons:[ atom "P" [ v "x"; v "y"; v "z" ] ]
    ()

let ex11_d =
  Instance.of_list
    [
      ("P", [ vs "a"; vs "d"; vs "e" ]);
      ("P", [ vs "b"; vn; vs "g" ]);
      ("R", [ vs "a"; vs "d" ]);
      ("T", [ vs "b" ]);
    ]

let test_example11 () =
  Alcotest.(check bool) "(a) satisfied" true (sat ex11_d ex11_a);
  Alcotest.(check bool) "(b) satisfied" true (sat ex11_d ex11_b);
  Alcotest.(check bool) "(a) literal" true (sat_lit ex11_d ex11_a);
  Alcotest.(check bool) "(b) literal" true (sat_lit ex11_d ex11_b);
  (* adding P(f,d,null) violates (a): no R(f,d) *)
  let d' = Instance.add (Relational.Atom.make "P" [ vs "f"; vs "d"; vn ]) ex11_d in
  Alcotest.(check bool) "(a) violated after insert" false (sat d' ex11_a);
  Alcotest.(check bool) "(a) literal agrees" false (sat_lit d' ex11_a);
  (* the violation witness names the inserted tuple *)
  match Nullsat.violations d' ex11_a with
  | [ viol ] ->
      Alcotest.(check int) "one witness atom" 1 (List.length viol.Nullsat.matched);
      Alcotest.(check string) "witness tuple" "P(f, d, null)"
        (Relational.Atom.to_string (List.hd viol.Nullsat.matched))
  | l -> Alcotest.failf "expected exactly one violation, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Example 12: null participates in joins as an ordinary constant. *)

let ex12_ic =
  Constr.generic
    ~ante:[ atom "P1" [ v "x"; v "y"; v "w" ]; atom "P2" [ v "y"; v "z" ] ]
    ~cons:[ atom "Q" [ v "x"; v "z"; v "u" ] ]
    ()

let ex12_d =
  Instance.of_list
    [
      ("P1", [ vs "a"; vs "b"; vs "c" ]);
      ("P1", [ vs "d"; vn; vs "c" ]);
      ("P1", [ vs "b"; vs "e"; vn ]);
      ("P1", [ vn; vs "b"; vs "b" ]);
      ("P2", [ vs "b"; vs "a" ]);
      ("P2", [ vs "e"; vs "c" ]);
      ("P2", [ vs "d"; vn ]);
      ("P2", [ vn; vs "b" ]);
      ("Q", [ vs "a"; vs "a"; vs "c" ]);
      ("Q", [ vs "b"; vn; vs "c" ]);
      ("Q", [ vs "b"; vs "c"; vs "d" ]);
      ("Q", [ vn; vs "c"; vs "a" ]);
    ]

let test_example12 () =
  Alcotest.(check bool) "satisfied" true (sat ex12_d ex12_ic);
  Alcotest.(check bool) "literal agrees" true (sat_lit ex12_d ex12_ic);
  (* removing Q(b, null, c) breaks the (b, e, null)-(e, c) join's witness:
     P1(b,e,null), P2(e,c) needs Q(b,c,_): Q(b,c,d) still there -> fine;
     instead remove Q(b,c,d): P1(b,e,null) /\ P2(e,c) -> Q(b,c,u) now needs
     Q(b,c,_): gone -> violation *)
  let d' = Instance.remove (Relational.Atom.make "Q" [ vs "b"; vs "c"; vs "d" ]) ex12_d in
  Alcotest.(check bool) "violated after delete" false (sat d' ex12_ic);
  Alcotest.(check bool) "literal agrees after delete" false (sat_lit d' ex12_ic)

(* ------------------------------------------------------------------ *)
(* Example 13: existential with repeated variable. *)

let ex13_ic =
  Constr.generic
    ~ante:[ atom "P" [ v "x"; v "y" ] ]
    ~cons:[ atom "Q" [ v "x"; v "z"; v "z" ] ]
    ()

let test_example13 () =
  let d =
    Instance.of_list
      [ ("P", [ vs "a"; vs "b" ]); ("P", [ vn; vs "c" ]); ("Q", [ vs "a"; vn; vn ]) ]
  in
  Alcotest.(check bool) "satisfied (z = null witness)" true (sat d ex13_ic);
  Alcotest.(check bool) "literal agrees" true (sat_lit d ex13_ic);
  (* Q(a, null, b) would NOT witness the repeated z *)
  let d' =
    Instance.of_list
      [ ("P", [ vs "a"; vs "b" ]); ("Q", [ vs "a"; vn; vs "b" ]) ]
  in
  Alcotest.(check bool) "repetition enforced" false (sat d' ex13_ic);
  Alcotest.(check bool) "literal agrees on repetition" false (sat_lit d' ex13_ic)

(* ------------------------------------------------------------------ *)
(* NOT NULL-constraints (Definition 5) *)

let test_nnc () =
  let nnc = Constr.not_null ~pred:"R" ~arity:2 ~pos:1 () in
  let ok = Instance.of_list [ ("R", [ vs "a"; vn ]) ] in
  let bad = Instance.of_list [ ("R", [ vn; vs "a" ]) ] in
  Alcotest.(check bool) "null elsewhere fine" true (sat ok nnc);
  Alcotest.(check bool) "null at position violates" false (sat bad nnc);
  Alcotest.(check int) "one violation" 1 (List.length (Nullsat.violations bad nnc))

(* The paper's motivating correction over [10]: {P(b, null)} wrt
   P(x,y) -> R(x) must be inconsistent under |=_N but consistent under
   the liberal semantics. *)
let test_liberal_vs_nullsat () =
  let d = Instance.of_list [ ("P", [ vs "b"; vn ]) ] in
  let ic =
    Constr.generic ~ante:[ atom "P" [ v "x"; v "y" ] ] ~cons:[ atom "R" [ v "x" ] ] ()
  in
  Alcotest.(check bool) "|=_N violated" false (sat d ic);
  Alcotest.(check bool) "liberal satisfied" true (Liberal.satisfies d ic)

(* ------------------------------------------------------------------ *)
(* FK extraction shapes *)

let test_fk_of_ric_shapes () =
  (* multi-column FK *)
  let two_col =
    Constr.generic
      ~ante:[ atom "S" [ v "a"; v "b"; v "c" ] ]
      ~cons:[ atom "R" [ v "b"; v "a"; v "w" ] ]
      ()
  in
  (match Sqlmatch.fk_of_ric two_col with
  | Some fk ->
      Alcotest.(check (list int)) "child cols" [ 1; 2 ] fk.Sqlmatch.child_cols;
      Alcotest.(check (list int)) "parent cols" [ 2; 1 ] fk.Sqlmatch.parent_cols
  | None -> Alcotest.fail "expected FK shape");
  (* two antecedent atoms: not FK-shaped *)
  let join_ic =
    Constr.generic
      ~ante:[ atom "S" [ v "a" ]; atom "T" [ v "a" ] ]
      ~cons:[ atom "R" [ v "a"; v "w" ] ]
      ()
  in
  Alcotest.(check bool) "join antecedent rejected" true
    (Sqlmatch.fk_of_ric join_ic = None);
  (* repeated shared variable: rejected *)
  let repeated =
    Constr.generic
      ~ante:[ atom "S" [ v "a"; v "a" ] ]
      ~cons:[ atom "R" [ v "a"; v "w" ] ]
      ()
  in
  Alcotest.(check bool) "repeated variable rejected" true
    (Sqlmatch.fk_of_ric repeated = None);
  (* NNC rejected *)
  Alcotest.(check bool) "NNC rejected" true
    (Sqlmatch.fk_of_ric (Constr.not_null ~pred:"S" ~arity:1 ~pos:1 ()) = None)

let test_sqlmatch_all_null_partial () =
  let fk = { Sqlmatch.child = "S"; child_cols = [ 1; 2 ]; parent = "R"; parent_cols = [ 1; 2 ] } in
  let d = Instance.of_list [ ("S", [ vn; vn ]) ] in
  Alcotest.(check bool) "all-null child: partial satisfied" true
    (Sqlmatch.satisfies Sqlmatch.Partial d fk);
  Alcotest.(check bool) "all-null child: simple satisfied" true
    (Sqlmatch.satisfies Sqlmatch.Simple d fk);
  Alcotest.(check bool) "all-null child: full violated" false
    (Sqlmatch.satisfies Sqlmatch.Full d fk)

(* ------------------------------------------------------------------ *)
(* Update checking (the DBMS update behaviour of Examples 5 and 6), on the
   path a session write takes *)

(* The violations after a batch of updates, maintained as [Session.apply]
   maintains them: the batch's net effect, then [check_delta] from the
   violations before it. *)
let violations_after ops d ics =
  let inserted, deleted = Delta.effective ops d in
  fst
    (Nullsat.check_delta
       ~before:(Nullsat.canonical_violations (Nullsat.check d ics))
       ~inserted ~deleted (Delta.apply ops d) ics)

let test_admission_example5 () =
  let after ops = violations_after ops ex5_d [ ex5_ric ] in
  (* inserting Course(CS41, 18, null): professor 18 unknown -> rejected *)
  let bad = Relational.Atom.make "Course" [ vs "CS41"; vi 18; vn ] in
  (match after [ Delta.insert bad ] with
  | [ viol ] ->
      Alcotest.(check bool) "offending tuple named" true
        (List.exists (Relational.Atom.equal bad) viol.Nullsat.matched)
  | found ->
      Alcotest.failf "insertion should be rejected by one violation, got %d"
        (List.length found));
  (* a null professor passes simple match *)
  let ok = Relational.Atom.make "Course" [ vs "CS60"; vn; vs "W06" ] in
  Alcotest.(check bool) "null-professor insertion accepted" true
    (after [ Delta.insert ok ] = []);
  (* deleting a referenced Exp tuple orphans its course *)
  let exp21 = Relational.Atom.make "Exp" [ vi 21; vs "CS27"; vi 3 ] in
  Alcotest.(check bool) "delete referenced tuple rejected" true
    (after [ Delta.delete exp21 ] <> []);
  (* deleting an unreferenced one is fine *)
  let exp45 = Relational.Atom.make "Exp" [ vi 45; vs "CS32"; vi 2 ] in
  Alcotest.(check bool) "delete unreferenced tuple accepted" true
    (after [ Delta.delete exp45 ] = [])

let test_admission_example6 () =
  let d =
    Instance.of_list
      [ ("Emp", [ vi 32; vn; vi 1000 ]); ("Emp", [ vi 41; vs "Paul"; vn ]) ]
  in
  let after a = violations_after [ Delta.insert a ] d [ ex6_ic ] in
  Alcotest.(check bool) "low salary rejected" true
    (after (Relational.Atom.make "Emp" [ vi 7; vn; vi 50 ]) <> []);
  Alcotest.(check bool) "null salary accepted (unknown)" true
    (after (Relational.Atom.make "Emp" [ vi 8; vn; vn ]) = [])

let test_violations_involving () =
  let d' = Instance.add (Relational.Atom.make "P" [ vs "f"; vs "d"; vn ]) ex11_d in
  let target = Relational.Atom.make "P" [ vs "f"; vs "d"; vn ] in
  Alcotest.(check int) "one violation involves the dirty tuple" 1
    (List.length (Nullsat.violations_involving d' [ ex11_a; ex11_b ] target));
  Alcotest.(check int) "clean tuple involves none" 0
    (List.length
       (Nullsat.violations_involving d' [ ex11_a; ex11_b ]
          (Relational.Atom.make "P" [ vs "a"; vs "d"; vs "e" ])))

(* ------------------------------------------------------------------ *)
(* Prepared existence probes agree with plain matching *)

let prop_prepared_exists_agrees =
  let value_gen =
    QCheck.Gen.(
      frequency
        [ (1, return vn); (4, map (fun c -> vs (String.make 1 c)) (char_range 'a' 'c')) ])
  in
  let gen =
    QCheck.Gen.(
      let atom_gen = map (fun values -> Relational.Atom.make "W" values) (list_size (return 2) value_gen) in
      pair
        (map Instance.of_atoms (list_size (int_range 0 8) atom_gen))
        (pair value_gen value_gen))
  in
  QCheck.Test.make ~name:"prepared_exists = exists_match" ~count:200
    (QCheck.make gen)
    (fun (d, (v1, v2)) ->
      let patom = atom "W" [ v "x"; v "y" ] in
      let prepared = Semantics.Assign.prepared_exists d ~bound:[ "x" ] patom in
      List.for_all
        (fun theta ->
          let expected = Join_oracle.exists_match d theta patom in
          prepared theta = expected && Semantics.Assign.exists_match d theta patom = expected)
        [
          Semantics.Assign.of_list [ ("x", v1) ];
          Semantics.Assign.of_list [ ("x", v1); ("y", v2) ];
          Semantics.Assign.empty;
        ])

(* ------------------------------------------------------------------ *)
(* The compiled join against the Value-level oracle (join_oracle.ml).

   Instances are bulk-built and then edited, so relations mix live and
   deleted segment rows with overlay tuples; one relation stays under
   [seg_min] (pure overlay) and one sometimes holds tuples of two arities.
   Conjunctions use repeated variables, self-joins, nulls and constants the
   instance lacks, from random seed assignments; the whole (binding,
   witness) sequence must agree in order. *)

let absent = [ vi 99; vs "zz" ]

let join_value_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return vn);
        (3, map vi (int_range 0 5));
        (2, map (fun c -> vs (String.make 1 c)) (char_range 'a' 'c'));
      ])

(* bulk atoms, then edits: add a fresh atom, remove a bulk atom, remove a
   fresh atom, re-add a bulk atom *)
let edited_instance_gen ~bulk ~fresh =
  QCheck.Gen.(
    bulk >>= fun atoms ->
    list_size (int_range 0 20) (triple (int_range 0 3) nat fresh) >>= fun edits ->
    let arr = Array.of_list atoms in
    let pick k = arr.(k mod Array.length arr) in
    let d =
      List.fold_left
        (fun d (kind, k, a) ->
          match kind with
          | 0 -> Instance.add a d
          | 1 when arr <> [||] -> Instance.remove (pick k) d
          | 2 -> Instance.remove a d
          | _ when arr <> [||] -> Instance.add (pick k) d
          | _ -> d)
        (Instance.of_atoms atoms) edits
    in
    return d)

let join_instance_gen =
  let open QCheck.Gen in
  let tuple n = list_size (return n) join_value_gen in
  let p = map (Relational.Atom.make "P") (frequency [ (9, tuple 2); (1, tuple 3) ]) in
  let q = map (Relational.Atom.make "Q") (tuple 2) in
  let r = map (Relational.Atom.make "R") (tuple 1) in
  let bulk =
    map
      (fun ((ps, qs), rs) -> ps @ qs @ rs)
      (pair
         (pair (list_size (int_range 0 40) p) (list_size (int_range 0 6) q))
         (list_size (int_range 0 12) r))
  in
  edited_instance_gen ~bulk ~fresh:(oneof [ p; q; r ])

let join_case_gen =
  let open QCheck.Gen in
  let term =
    frequency
      [
        (4, map v (oneofl [ "x"; "y"; "z" ]));
        (1, map Term.const (oneof [ join_value_gen; oneofl absent ]));
      ]
  in
  let patom =
    oneofl [ ("P", 2); ("P", 2); ("P", 3); ("Q", 2); ("R", 1) ] >>= fun (p, n) ->
    map (atom p) (list_size (return n) term)
  in
  let seed =
    map
      (fun bs -> Semantics.Assign.of_list (List.sort_uniq (fun (a, _) (b, _) -> compare a b) bs))
      (list_size (int_range 0 3)
         (pair (oneofl [ "x"; "y"; "z"; "w" ]) (oneof [ join_value_gen; oneofl absent ])))
  in
  triple join_instance_gen (list_size (int_range 1 3) patom) seed

let print_join_case (d, atoms, seed) =
  Fmt.str "%a@.atoms %a@.seed %a" Instance.pp_inline d
    Fmt.(list ~sep:(any ", ") Patom.pp)
    atoms Semantics.Assign.pp seed

let same_matches l1 l2 =
  List.equal
    (fun (t1, w1) (t2, w2) ->
      Semantics.Assign.equal t1 t2 && List.equal Relational.Atom.equal w1 w2)
    l1 l2

let prop_join_matches_oracle =
  QCheck.Test.make ~name:"compiled join = Value-level oracle" ~count:1500
    (QCheck.make ~print:print_join_case join_case_gen)
    (fun (d, atoms, seed) ->
      let first = List.hd atoms in
      same_matches
        (Semantics.Assign.join_with_witness d seed atoms)
        (Join_oracle.join_with_witness d seed atoms)
      && List.equal Semantics.Assign.equal
           (Semantics.Assign.atom_matches d seed first)
           (Join_oracle.atom_matches d seed first)
      && Semantics.Assign.exists_match d seed first = Join_oracle.exists_match d seed first)

(* Nullsat.check on the compiled join against the oracle's check, over the
   constraint menus of the route/random generators plus constraints with
   constants, self-joins and existentials; built-ins the join compares as
   codes (an FD's equality over nullable columns, [=] and [≠] against a
   constant no instance holds) next to ones it must decode (an offset, an
   order comparison, whose code order is interning order), and
   foreign-key-shaped consequents that the postings decide, over a
   relation [M] of mixed arities, one of which is its segment's. *)
let never_held = vs "\001 held by no instance"

let check_case_gen =
  let open QCheck.Gen in
  let value =
    frequency
      [
        (1, return vn);
        (4, map (fun c -> vs (String.make 1 c)) (char_range 'a' 'f'));
        (1, map vi (int_range 1 3));
      ]
  in
  let fact p n = map (Relational.Atom.make p) (list_size (return n) value) in
  let m_fact = oneof [ fact "M" 1; fact "M" 2; fact "M" 2; fact "M" 3 ] in
  let any_fact = oneof [ fact "P" 1; fact "Q" 1; fact "R" 2; fact "S" 1; m_fact ] in
  let bulk =
    map List.concat
      (flatten_l
         [
           list_size (int_range 0 6) (fact "P" 1);
           list_size (int_range 0 6) (fact "Q" 1);
           list_size (int_range 0 40) (fact "R" 2);
           list_size (int_range 0 10) (fact "S" 1);
           list_size (int_range 0 24) (oneof [ m_fact; fact "M" 3 ]);
         ])
  in
  let r_xy = atom "R" [ v "x"; v "y" ] in
  let cmp op l r = Builtin.cmp op l r in
  let extra =
    [
      Constr.generic ~name:"r_const" ~ante:[ atom "R" [ v "x"; Term.const (vs "a") ] ]
        ~cons:[ atom "S" [ v "x" ] ] ();
      Constr.generic ~name:"r_absent" ~ante:[ atom "R" [ v "x"; Term.const (vs "zz") ] ]
        ~cons:[ atom "S" [ v "x" ] ] ();
      Constr.generic ~name:"r_loop" ~ante:[ atom "R" [ v "x"; v "x" ] ]
        ~cons:[ atom "P" [ v "x" ] ] ();
      Constr.generic ~name:"r_chain"
        ~ante:[ atom "R" [ v "x"; v "y" ]; atom "R" [ v "y"; v "z" ] ]
        ~cons:[ atom "R" [ v "x"; v "w" ]; atom "Q" [ v "z" ] ]
        ();
      Constr.generic ~name:"r_cmp" ~ante:[ atom "R" [ v "x"; v "y" ]; atom "S" [ v "y" ] ]
        ~phi:[ Builtin.neq (Term.var "x") (Term.var "y") ] ();
      Constr.generic ~name:"r_fd" ~ante:[ r_xy; atom "R" [ v "x"; v "z" ] ]
        ~phi:[ Builtin.eq (Term.var "y") (Term.var "z") ] ();
      Constr.generic ~name:"r_eq_absent" ~ante:[ r_xy ]
        ~phi:[ Builtin.eq (Term.var "y") (Term.const never_held) ] ();
      Constr.generic ~name:"r_neq_absent" ~ante:[ r_xy; atom "S" [ v "y" ] ]
        ~phi:[ Builtin.neq (Term.const never_held) (Term.var "x") ] ();
      Constr.generic ~name:"r_offset" ~ante:[ r_xy ]
        ~phi:[ cmp Builtin.Eq (Builtin.evar "x") (Builtin.shift (Builtin.evar "y") 1) ] ();
      Constr.generic ~name:"r_order" ~ante:[ r_xy ]
        ~phi:[ cmp Builtin.Lt (Builtin.evar "x") (Builtin.evar "y") ] ();
      Constr.generic ~name:"fk_m2" ~ante:[ r_xy ] ~cons:[ atom "M" [ v "y"; v "w" ] ] ();
      Constr.generic ~name:"fk_m3" ~ante:[ atom "S" [ v "x" ] ]
        ~cons:[ atom "M" [ v "w"; v "x"; v "u" ] ] ();
      Constr.generic ~name:"fk_m1" ~ante:[ atom "S" [ v "x" ] ] ~cons:[ atom "M" [ v "x" ] ] ();
    ]
  in
  triple (edited_instance_gen ~bulk ~fresh:any_fact) (int_range 1 100_000)
    (int_range 0 ((1 lsl List.length extra) - 1))
  >|= fun (d, seed, mask) ->
  let menu =
    if seed mod 2 = 0 then (Workload.Gen.route_case ~seed ()).Workload.Gen.ics
    else (Workload.Gen.random_case ~seed ()).Workload.Gen.ics
  in
  (d, menu @ List.filteri (fun i _ -> mask land (1 lsl i) <> 0) extra)

let same_violations l1 l2 =
  List.equal
    (fun (a : Nullsat.violation) (b : Nullsat.violation) ->
      Constr.equal a.ic b.ic
      && Semantics.Assign.equal a.theta b.theta
      && List.equal Relational.Atom.equal a.matched b.matched)
    l1 l2

let prop_check_matches_oracle =
  QCheck.Test.make ~name:"Nullsat.check = check on the oracle join" ~count:1000
    (QCheck.make
       ~print:(fun (d, ics) ->
         Fmt.str "%a@.%a" Instance.pp_inline d Fmt.(list ~sep:cut Constr.pp) ics)
       check_case_gen)
    (fun (d, ics) -> same_violations (Nullsat.check d ics) (Join_oracle.check d ics))

(* ------------------------------------------------------------------ *)
(* SQL match semantics against their first definition
   (test/sqlmatch_oracle.ml), which compares each child with every parent
   tuple: single and composite foreign keys, children and parents with
   nulls, each mode. *)

let sqlmatch_case_gen =
  let open QCheck.Gen in
  let value =
    frequency [ (2, return vn); (4, map vi (int_range 0 4)); (1, return (vs "a")) ]
  in
  let rows p n = list_size (int_range 0 30) (map (Relational.Atom.make p) (list_size (return n) value)) in
  let fk =
    oneofl
      [
        { Sqlmatch.child = "C"; child_cols = [ 2 ]; parent = "Par"; parent_cols = [ 1 ] };
        { Sqlmatch.child = "C"; child_cols = [ 1; 3 ]; parent = "Par"; parent_cols = [ 2; 1 ] };
        { Sqlmatch.child = "C"; child_cols = [ 3; 2; 1 ]; parent = "Par"; parent_cols = [ 1; 2; 3 ] };
      ]
  in
  map2
    (fun (children, parents) fk -> (Instance.of_atoms (children @ parents), fk))
    (pair (rows "C" 3) (rows "Par" 3)) fk

let prop_sqlmatch_oracle =
  QCheck.Test.make ~name:"Sqlmatch = all-pairs oracle" ~count:500
    (QCheck.make
       ~print:(fun (d, (fk : Sqlmatch.fk)) ->
         Fmt.str "%a / C%a -> Par%a" Instance.pp_inline d
           Fmt.(Dump.list int) fk.child_cols Fmt.(Dump.list int) fk.parent_cols)
       sqlmatch_case_gen)
    (fun (d, fk) ->
      List.for_all
        (fun mode ->
          List.equal Relational.Tuple.equal (Sqlmatch.violations mode d fk)
            (Sqlmatch_oracle.violations mode d fk))
        [ Sqlmatch.Simple; Sqlmatch.Partial; Sqlmatch.Full ])

(* The semantics comparison grows with the tables: each SQL-match child
   tuple probes the parent's postings once, where it compared every
   parent tuple, so four times the tuples cost at most five times the
   words. *)
let test_compare_semantics_words () =
  let words tuples =
    let w = Workload.Gen.scale_workload ~tuples () in
    let d = Instance.of_atoms (Instance.atoms w.Workload.Gen.d) in
    snd (Alloc.allocated (fun () -> Report.compare_semantics d w.Workload.Gen.ics))
  in
  let small = words 1_000 and large = words 4_000 in
  Alcotest.(check bool)
    (Printf.sprintf "4k tuples: %.0f words <= 5 x %.0f at 1k" large small)
    true
    (large <= 5. *. small)

(* ------------------------------------------------------------------ *)
(* Report *)

let test_report () =
  let rows = Report.compare_semantics ex4_d [ ex4_psi1 ] in
  Alcotest.(check int) "one row" 1 (List.length rows);
  let row = List.hd rows in
  let verdict s = List.assoc s row.Report.verdicts in
  Alcotest.(check bool) "|=_N ok" true (verdict Report.NullAware = Some true);
  Alcotest.(check bool) "classic violated" true (verdict Report.ClassicFo = Some false);
  Alcotest.(check bool) "partial violated" true (verdict Report.SqlPartial = Some false);
  let counts = Report.violation_counts ex4_d [ ex4_psi1 ] in
  Alcotest.(check int) "classic count 1" 1 (List.assoc Report.ClassicFo counts);
  Alcotest.(check int) "nullaware count 0" 0 (List.assoc Report.NullAware counts)

(* sql semantics do not apply to non-FK constraints *)
let test_report_na () =
  let rows = Report.compare_semantics ex4_d [ ex6_ic ] in
  let row = List.hd rows in
  Alcotest.(check bool) "sql n/a on check constraint" true
    (List.assoc Report.SqlSimple row.Report.verdicts = None)

(* ------------------------------------------------------------------ *)
(* Properties *)

let value_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Value.null);
        (2, map Value.int (int_range 0 3));
        (3, map (fun c -> Value.str (String.make 1 c)) (char_range 'a' 'c'));
      ])

let inst_gen preds =
  QCheck.Gen.(
    let atom_gen =
      let* p, arity = oneofl preds in
      map (fun vs -> Relational.Atom.make p vs) (list_size (return arity) value_gen)
    in
    map Instance.of_atoms (list_size (int_range 0 10) atom_gen))

(* ex13 restated over a predicate of its own so that every pool constraint
   agrees with pool_preds on arities (Definition 4 presupposes a fixed
   schema; projection would otherwise mask arity mismatches). *)
let ex13_pool_ic =
  Constr.generic
    ~ante:[ atom "U" [ v "x"; v "y" ] ]
    ~cons:[ atom "Q" [ v "x"; v "z"; v "z" ] ]
    ()

let constraint_pool =
  [
    ex4_psi1;
    ex4_psi2;
    ex11_a;
    ex11_b;
    ex12_ic;
    ex13_pool_ic;
    Constr.not_null ~pred:"P" ~arity:3 ~pos:1 ();
    ex8_ic;
  ]

let pool_preds =
  [ ("P", 3); ("R", 2); ("T", 1); ("P1", 3); ("P2", 2); ("Q", 3); ("U", 2); ("Person", 4) ]

let prop_direct_equals_literal =
  QCheck.Test.make ~name:"satisfies = satisfies_literal (Definition 4)" ~count:300
    (QCheck.make
       ~print:(fun (d, i) ->
         Fmt.str "%a / %s" Instance.pp_inline d
           (Constr.to_string (List.nth constraint_pool i)))
       QCheck.Gen.(pair (inst_gen pool_preds) (int_range 0 (List.length constraint_pool - 1))))
    (fun (d, i) ->
      let ic = List.nth constraint_pool i in
      sat d ic = sat_lit d ic)

let prop_null_free_classic_agrees =
  QCheck.Test.make ~name:"on null-free instances |=_N = classic FO" ~count:300
    (QCheck.make
       ~print:(fun (d, i) ->
         Fmt.str "%a / %s" Instance.pp_inline d
           (Constr.to_string (List.nth constraint_pool i)))
       QCheck.Gen.(pair (inst_gen pool_preds) (int_range 0 (List.length constraint_pool - 1))))
    (fun (d, i) ->
      let d = Instance.filter (fun a -> not (Relational.Atom.has_null a)) d in
      let ic = List.nth constraint_pool i in
      sat d ic = Classic.satisfies d ic)

let prop_liberal_weakest =
  QCheck.Test.make ~name:"classic |= implies |=_N implies liberal" ~count:300
    (QCheck.make
       ~print:(fun (d, i) ->
         Fmt.str "%a / %s" Instance.pp_inline d
           (Constr.to_string (List.nth constraint_pool i)))
       QCheck.Gen.(pair (inst_gen pool_preds) (int_range 0 (List.length constraint_pool - 1))))
    (fun (d, i) ->
      let ic = List.nth constraint_pool i in
      let c = Classic.satisfies d ic and n = sat d ic and l = Liberal.satisfies d ic in
      ((not c) || n) && ((not n) || l))

let prop_empty_consistent =
  QCheck.Test.make ~name:"the empty instance satisfies every IC" ~count:50
    (QCheck.make QCheck.Gen.(int_range 0 (List.length constraint_pool - 1)))
    (fun i -> sat Instance.empty (List.nth constraint_pool i))

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "semantics"
    [
      ( "paper-examples",
        [
          Alcotest.test_case "example 4" `Quick test_example4;
          Alcotest.test_case "example 5" `Quick test_example5;
          Alcotest.test_case "example 6" `Quick test_example6;
          Alcotest.test_case "example 8" `Quick test_example8;
          Alcotest.test_case "example 9" `Quick test_example9;
          Alcotest.test_case "example 11" `Quick test_example11;
          Alcotest.test_case "example 12" `Quick test_example12;
          Alcotest.test_case "example 13" `Quick test_example13;
        ] );
      ( "nnc",
        [
          Alcotest.test_case "definition 5" `Quick test_nnc;
          Alcotest.test_case "liberal vs |=_N" `Quick test_liberal_vs_nullsat;
        ] );
      ( "fk-shapes",
        [
          Alcotest.test_case "fk_of_ric" `Quick test_fk_of_ric_shapes;
          Alcotest.test_case "all-null partial" `Quick test_sqlmatch_all_null_partial;
        ]
        @ qcheck [ prop_sqlmatch_oracle ] );
      ( "admission",
        [
          Alcotest.test_case "example 5 updates" `Quick test_admission_example5;
          Alcotest.test_case "example 6 updates" `Quick test_admission_example6;
          Alcotest.test_case "violations involving" `Quick test_violations_involving;
        ] );
      ( "report",
        [
          Alcotest.test_case "comparison" `Quick test_report;
          Alcotest.test_case "n/a entries" `Quick test_report_na;
          Alcotest.test_case "semantics comparison words" `Quick test_compare_semantics_words;
        ] );
      ( "properties",
        qcheck
          [
            prop_prepared_exists_agrees;
            prop_join_matches_oracle;
            prop_check_matches_oracle;
            prop_direct_equals_literal;
            prop_null_free_classic_agrees;
            prop_liberal_weakest;
            prop_empty_consistent;
          ] );
    ]
