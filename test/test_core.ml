(* Tests for the repair programs of Definition 9 and the correspondence of
   Theorem 4: the databases of the stable models of Pi(D, IC) are exactly
   the repairs of D. *)

module Value = Relational.Value
module Atom = Relational.Atom
module Instance = Relational.Instance
module Term = Ic.Term
module Patom = Ic.Patom
module Builtin = Ic.Builtin
module Constr = Ic.Constr
module Proggen = Core.Proggen
module Engine = Core.Engine
module Hcfcheck = Core.Hcfcheck
module Enumerate = Repair.Enumerate

let v = Term.var
let atom p ts = Patom.make p ts
let vn = Value.null
let vs = Value.str
let vi = Value.int

let instance = Alcotest.testable Instance.pp_inline Instance.equal

let check_repair_set name expected actual =
  let sort = List.sort Instance.compare in
  Alcotest.(check (list instance)) name (sort expected) (sort actual)

let engine_repairs ?variant d ics =
  match Engine.repairs ?variant d ics with
  | Ok reps -> reps
  | Error msg -> Alcotest.failf "engine error: %s" msg

(* Theorem 4 on a given scenario: program-based repairs = model-theoretic
   repairs. *)
let check_theorem4 name d ics =
  check_repair_set name (Enumerate.repairs d ics) (engine_repairs d ics)

(* ------------------------------------------------------------------ *)
(* Paper scenarios *)

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

let test_theorem4_example15 () = check_theorem4 "example 15" ex15_d [ ex15_ric ]

let ex16_d = Instance.of_list [ ("Q", [ vs "a"; vs "b" ]); ("P", [ vs "a"; vs "c" ]) ]

let ex16_ics =
  [
    Constr.generic ~ante:[ atom "P" [ v "x"; v "y" ] ] ~cons:[ atom "Q" [ v "x"; v "z" ] ] ();
    Constr.generic
      ~ante:[ atom "Q" [ v "x"; v "y" ] ]
      ~phi:[ Builtin.neq (v "y") (Term.str "b") ]
      ();
  ]

let test_theorem4_example16 () = check_theorem4 "example 16" ex16_d ex16_ics

let ex17_d =
  Instance.of_list
    [ ("P", [ vs "a"; vn ]); ("P", [ vs "b"; vs "c" ]); ("R", [ vs "a"; vs "b" ]) ]

let ex17_ric =
  Constr.generic ~ante:[ atom "P" [ v "x"; v "y" ] ] ~cons:[ atom "R" [ v "x"; v "z" ] ] ()

let test_theorem4_example17 () = check_theorem4 "example 17" ex17_d [ ex17_ric ]

(* Example 19/21/23: key + FK + NNC.  The program of Example 21 is Example
   19's; its stable models (Example 23) induce Example 19's four repairs. *)
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

let test_theorem4_example19 () =
  check_theorem4 "examples 19/21/23" ex19_d ex19_ics;
  (* both variants agree here *)
  check_repair_set "literal variant agrees on Example 19"
    (Enumerate.repairs ex19_d ex19_ics)
    (engine_repairs ~variant:Proggen.Literal ex19_d ex19_ics)

(* Example 18 is RIC-cyclic — outside Theorem 4's hypothesis — but the
   refined program still computes exactly the four repairs. *)
let ex18_d =
  Instance.of_list [ ("P", [ vs "a"; vs "b" ]); ("P", [ vn; vs "a" ]); ("T", [ vs "c" ]) ]

let ex18_ics =
  [
    Constr.generic ~ante:[ atom "P" [ v "x"; v "y" ] ] ~cons:[ atom "T" [ v "x" ] ] ();
    Constr.generic ~ante:[ atom "T" [ v "x" ] ] ~cons:[ atom "P" [ v "y"; v "x" ] ] ();
  ]

let test_example18_cyclic () =
  (match Engine.run ex18_d ex18_ics with
  | Error msg -> Alcotest.failf "engine error: %s" msg
  | Ok report ->
      Alcotest.(check bool) "flagged RIC-cyclic" false report.Engine.ric_acyclic);
  check_theorem4 "example 18 (cyclic, refined)" ex18_d ex18_ics

(* A cyclic set where the RIC-inserted tuple has a non-null universal
   attribute feeding the UIC: the raw stable models include circularly
   supported deletion cascades that are not <=_D-minimal, which the
   engine's minimality filter removes (Theorem 4 covers acyclic sets
   only). *)
let census_ics =
  [
    Constr.generic ~ante:[ atom "H" [ v "x"; v "y" ] ] ~cons:[ atom "G" [ v "x" ] ] ();
    Constr.generic ~ante:[ atom "G" [ v "x" ] ] ~cons:[ atom "H" [ v "x"; v "z" ] ] ();
  ]

let test_cyclic_cascade_filtered () =
  let d =
    Instance.of_list
      [
        ("H", [ vs "rod"; vs "oak" ]);
        ("H", [ vn; vs "elm" ]);
        ("G", [ vs "rod" ]);
        ("G", [ vs "mary" ]);
      ]
  in
  check_theorem4 "census cyclic scenario" d census_ics;
  check_repair_set "exactly delete-mary or insert-household"
    [
      Instance.remove (Atom.make "G" [ vs "mary" ]) d;
      Instance.add (Atom.make "H" [ vs "mary"; vn ]) d;
    ]
    (engine_repairs d census_ics)

let prop_theorem4_cyclic =
  let value_gen =
    QCheck.Gen.(
      frequency
        [ (1, return Value.null); (4, map (fun c -> Value.str (String.make 1 c)) (char_range 'a' 'c')) ])
  in
  let inst_gen =
    QCheck.Gen.(
      let atom_gen =
        let* p, arity = oneofl [ ("H", 2); ("G", 1) ] in
        map (fun values -> Atom.make p values) (list_size (return arity) value_gen)
      in
      map Instance.of_atoms (list_size (int_range 0 4) atom_gen))
  in
  QCheck.Test.make ~name:"engine = Rep on cyclic scenarios" ~count:60
    (QCheck.make ~print:(Fmt.str "%a" Instance.pp_inline) inst_gen)
    (fun d ->
      let model_based = Enumerate.repairs d census_ics in
      let program_based = engine_repairs d census_ics in
      let sort = List.sort Instance.compare in
      List.equal Instance.equal (sort model_based) (sort program_based))

let test_consistent_database () =
  let d = Instance.of_list [ ("Course", [ vi 21; vs "C15" ]); ("Student", [ vi 21; vs "Ann" ]) ] in
  check_repair_set "consistent D: unique model = D" [ d ] (engine_repairs d [ ex15_ric ])

(* ------------------------------------------------------------------ *)
(* The Literal/Refined divergence (documented corner case) *)

let corner_d = Instance.of_list [ ("P", [ vs "a" ]); ("Q", [ vs "a"; vn ]) ]

let corner_ric =
  Constr.generic ~ante:[ atom "P" [ v "x" ] ] ~cons:[ atom "Q" [ v "x"; v "y" ] ] ()

let test_corner_case () =
  (* D is consistent: Q(a, null) witnesses the RIC under |=_N *)
  Alcotest.(check bool) "consistent" true
    (Semantics.Nullsat.consistent corner_d [ corner_ric ]);
  check_repair_set "refined variant: exactly D" [ corner_d ]
    (engine_repairs ~variant:Proggen.Refined corner_d [ corner_ric ]);
  (* the literal Definition 9 program has a spurious deletion model at the
     stable-model level ... *)
  let raw_databases variant =
    match Proggen.repair_program ~variant corner_d [ corner_ric ] with
    | Error msg -> Alcotest.failf "generation failed: %s" msg
    | Ok pg ->
        let g = Asp.Grounder.ground pg.Proggen.program in
        Core.Extract.databases_of_models pg.Proggen.names
          (Asp.Solver.stable_models_atoms g)
  in
  let literal_raw = raw_databases Proggen.Literal in
  Alcotest.(check int) "literal raw models: spurious extra db" 2
    (List.length literal_raw);
  Alcotest.(check bool) "D among them" true
    (List.exists (Instance.equal corner_d) literal_raw);
  let refined_raw = raw_databases Proggen.Refined in
  Alcotest.(check int) "refined raw models: exactly D" 1 (List.length refined_raw);
  (* ... which the engine's minimality filter removes even for Literal *)
  check_repair_set "engine filters the spurious db" [ corner_d ]
    (engine_repairs ~variant:Proggen.Literal corner_d [ corner_ric ])

(* ------------------------------------------------------------------ *)
(* Program structure (Examples 21, 22) *)

let test_example21_structure () =
  match Proggen.repair_program ~variant:Proggen.Literal ex19_d ex19_ics with
  | Error msg -> Alcotest.failf "generation failed: %s" msg
  | Ok pg ->
      let text = Proggen.to_dlv pg in
      let contains sub =
        let n = String.length text and m = String.length sub in
        let rec go i =
          i + m <= n && (String.equal (String.sub text i m) sub || go (i + 1))
        in
        m = 0 || go 0
      in
      (* facts *)
      Alcotest.(check bool) "fact R(a,b)" true (contains "d_r(a,b).");
      Alcotest.(check bool) "fact S(null,a)" true (contains "d_s(null,a).");
      (* rule 2 for the key FD: disjunctive deletion advice *)
      Alcotest.(check bool) "FD rule heads" true
        (contains "d_r_a(X1,X2,fa) v d_r_a(X1,Y2,fa)");
      (* rule 3 for the FK: null insertion *)
      Alcotest.(check bool) "RIC insertion head" true (contains "d_r_a(X2,null,ta)");
      Alcotest.(check bool) "aux rule" true (contains "aux_");
      (* rule 4 for the NNC *)
      Alcotest.(check bool) "NNC rule" true (contains "X1 = null");
      (* rules 6-7 *)
      Alcotest.(check bool) "interpretation rule" true
        (contains "d_r_a(X1,X2,tss) :- d_r_a(X1,X2,ts), not d_r_a(X1,X2,fa).");
      Alcotest.(check bool) "program denial" true
        (contains ":- d_r_a(X1,X2,ta), d_r_a(X1,X2,fa).")

let test_example22_partitions () =
  (* P(x,y) -> R(x) \/ S(y): the Q'/Q'' expansion yields 2^2 = 4 rules *)
  let d = Instance.of_list [ ("P", [ vs "a"; vs "b" ]); ("P", [ vs "c"; vn ]) ] in
  let ics =
    [
      Constr.generic
        ~ante:[ atom "P" [ v "x"; v "y" ] ]
        ~cons:[ atom "R" [ v "x" ]; atom "S" [ v "y" ] ]
        ();
      Constr.not_null ~pred:"P" ~arity:2 ~pos:2 ();
    ]
  in
  match Proggen.repair_program d ics with
  | Error msg -> Alcotest.failf "generation failed: %s" msg
  | Ok pg ->
      let facts, ic_rules, bookkeeping = Proggen.rule_counts pg in
      Alcotest.(check int) "2 facts" 2 facts;
      (* 4 partition rules + 1 NNC rule *)
      Alcotest.(check int) "5 IC rules" 5 ic_rules;
      (* 3 predicates x 4 bookkeeping rules *)
      Alcotest.(check int) "12 bookkeeping rules" 12 bookkeeping;
      (* and the repairs make sense: P(c,null) deleted by the NNC; P(a,b)
         violation fixed by deletion or R/S insertion *)
      check_repair_set "example 22 repairs"
        [
          Instance.of_list [ ("P", [ vs "a"; vs "b" ]); ("R", [ vs "a" ]) ];
          Instance.of_list [ ("P", [ vs "a"; vs "b" ]); ("S", [ vs "b" ]) ];
          Instance.empty;
        ]
        (engine_repairs d ics)

(* Example 23 prints the four stable models of Example 21's program.  The
   distinguishing content of each model is its set of ta/fa advice atoms:
   M1 = {R(a,c) fa, R(f,null) ta}, M2 = {R(a,b) fa, R(f,null) ta},
   M3 = {R(a,c) fa, S(e,f) fa},   M4 = {R(a,b) fa, S(e,f) fa}. *)
let test_example23_stable_models () =
  match Proggen.repair_program ~variant:Proggen.Literal ex19_d ex19_ics with
  | Error msg -> Alcotest.failf "generation failed: %s" msg
  | Ok pg ->
      let g = Asp.Grounder.ground pg.Proggen.program in
      let models = Asp.Solver.stable_models_atoms g in
      Alcotest.(check int) "four stable models" 4 (List.length models);
      let advice model =
        List.filter_map
          (fun (ga : Asp.Ground.gatom) ->
            match Core.Annot.Names.rel_of_annotated pg.Proggen.names ga.Asp.Ground.gpred with
            | None -> None
            | Some rel -> (
                match List.rev ga.Asp.Ground.gargs with
                | ann :: rev_args -> (
                    match Core.Annot.annotation_of_const ann with
                    | Some Core.Annot.Ta ->
                        Some
                          (Fmt.str "%s(%s) ta" rel
                             (String.concat ","
                                (List.rev_map
                                   (fun c -> Fmt.str "%a" Asp.Syntax.pp_const c)
                                   rev_args)))
                    | Some Core.Annot.Fa ->
                        Some
                          (Fmt.str "%s(%s) fa" rel
                             (String.concat ","
                                (List.rev_map
                                   (fun c -> Fmt.str "%a" Asp.Syntax.pp_const c)
                                   rev_args)))
                    | _ -> None)
                | [] -> None))
          model
        |> List.sort compare
      in
      let got = List.sort compare (List.map advice models) in
      let expected =
        List.sort compare
          [
            [ "R(a,c) fa"; "R(f,null) ta" ];
            [ "R(a,b) fa"; "R(f,null) ta" ];
            [ "R(a,c) fa"; "S(e,f) fa" ];
            [ "R(a,b) fa"; "S(e,f) fa" ];
          ]
      in
      Alcotest.(check (list (list string))) "the advice sets of Example 23"
        expected got

(* ------------------------------------------------------------------ *)
(* Decomposition into independent conflict components (Repair.Decompose) *)

(* Decomposed = monolithic: the decomposed pipeline on the enumerator and
   on the program engine against the monolithic search *)
let check_decomposed name d ics =
  let mono = Enumerate.repairs d ics in
  let repairs method_ engine =
    match Query.Cqa.repairs ~method_ d ics with
    | Ok reps ->
        check_repair_set (name ^ engine) mono reps;
        reps
    | Error m -> Alcotest.failf "%s%s: %s" name engine m
  in
  ignore (repairs Query.Cqa.LogicProgram ", program engine");
  repairs Query.Cqa.ModelTheoretic ""

let test_decompose_components () =
  (* ex15 and ex16 are over disjoint schemas: their conflicts fall into
     two components, whose constraints cover both schemas *)
  let d = Instance.union ex15_d ex16_d in
  let comps = (Repair.Decompose.plan d ([ ex15_ric ] @ ex16_ics)).Repair.Decompose.components in
  Alcotest.(check int) "two components" 2 (List.length comps);
  let all_preds =
    List.concat_map
      (fun c -> List.concat_map Constr.preds c.Repair.Decompose.ics)
      comps
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "predicates covered"
    [ "Course"; "P"; "Q"; "Student" ] all_preds

let test_decompose_product () =
  (* the union instance has the product of ex15's and ex16's repairs
     (2 x 2), plus an untouched spectator *)
  let spectator = Atom.make "Spectator" [ vs "s" ] in
  let d = Instance.add spectator (Instance.union ex15_d ex16_d) in
  let ics = [ ex15_ric ] @ ex16_ics in
  let dec = Component_search.enumerate d ics in
  Alcotest.(check int) "component count" 2
    (List.length dec.Component_search.plan.Repair.Decompose.components);
  Alcotest.(check (list int)) "2 repairs each" [ 2; 2 ]
    (List.sort compare (List.map List.length dec.Component_search.minimal));
  let reps = check_decomposed "matches the monolithic engine" d ics in
  Alcotest.(check int) "product of repairs" 4 (List.length reps);
  List.iter
    (fun r -> Alcotest.(check bool) "spectator preserved" true (Instance.mem spectator r))
    reps

let test_decompose_single_component () =
  let component_count d =
    List.length (Repair.Decompose.plan d ex19_ics).Repair.Decompose.components
  in
  (* Example 19 without its dangling S(e, f): the key conflict on R(a, _)
     and the reference S(null, a) it could orphan form one component *)
  let d = Instance.remove (Atom.make "S" [ vs "e"; vs "f" ]) ex19_d in
  Alcotest.(check int) "one component" 1 (component_count d);
  ignore (check_decomposed "same repairs" d ex19_ics);
  (* the dangling reference is a second, independent conflict *)
  Alcotest.(check int) "Example 19: two components" 2 (component_count ex19_d);
  ignore (check_decomposed "Example 19: same repairs" ex19_d ex19_ics)

let prop_decompose_agrees =
  let value_gen =
    QCheck.Gen.(
      frequency
        [ (1, return Value.null); (4, map (fun c -> Value.str (String.make 1 c)) (char_range 'a' 'b')) ])
  in
  let inst_gen =
    QCheck.Gen.(
      let atom_gen =
        let* p, arity = oneofl [ ("P", 2); ("T", 1); ("A", 1); ("B", 1) ] in
        map (fun values -> Atom.make p values) (list_size (return arity) value_gen)
      in
      map Instance.of_atoms (list_size (int_range 0 6) atom_gen))
  in
  let two_groups =
    [
      Constr.generic ~ante:[ atom "P" [ v "x"; v "y" ] ] ~cons:[ atom "T" [ v "x" ] ] ();
      Constr.generic ~ante:[ atom "A" [ v "x" ] ] ~cons:[ atom "B" [ v "x" ] ] ();
    ]
  in
  QCheck.Test.make ~name:"decomposed repairs = monolithic repairs" ~count:60
    (QCheck.make ~print:(Fmt.str "%a" Instance.pp_inline) inst_gen)
    (fun d ->
      let sort = List.sort Instance.compare in
      let mono = sort (Enumerate.repairs d two_groups) in
      List.for_all
        (fun method_ ->
          match Query.Cqa.repairs ~method_ d two_groups with
          | Ok reps -> List.equal Instance.equal mono (sort reps)
          | Error _ -> false)
        Query.Cqa.[ ModelTheoretic; LogicProgram ])

(* ------------------------------------------------------------------ *)
(* Null-propagation analysis (extended-paper item (b)) *)

let test_nullflow_positions () =
  (* Example 19: the FK inserts nulls at R[2]; D holds a null at S[1] *)
  let ins = Core.Nullflow.insertion_positions ex19_ics in
  Alcotest.(check (list (pair string int))) "insertion positions" [ ("R", 2) ] ins;
  let may = Core.Nullflow.may_null ex19_d ex19_ics in
  Alcotest.(check (list (pair string int))) "may-null positions"
    [ ("R", 2); ("S", 1) ] may;
  Alcotest.(check bool) "R[1] null-safe" true
    (Core.Nullflow.null_safe ex19_ics [ ("R", 1) ]);
  Alcotest.(check bool) "R[2] not null-safe" false
    (Core.Nullflow.null_safe ex19_ics [ ("R", 2) ])

let prop_nullflow_sound =
  (* every null appearing in any repair sits at a predicted position *)
  let value_gen =
    QCheck.Gen.(
      frequency
        [ (1, return Value.null); (4, map (fun c -> Value.str (String.make 1 c)) (char_range 'a' 'b')) ])
  in
  let inst_gen =
    QCheck.Gen.(
      let atom_gen =
        let* p, arity = oneofl [ ("R", 2); ("S", 2) ] in
        map (fun values -> Atom.make p values) (list_size (return arity) value_gen)
      in
      map Instance.of_atoms (list_size (int_range 0 5) atom_gen))
  in
  QCheck.Test.make ~name:"null-flow analysis covers every repair null" ~count:80
    (QCheck.make ~print:(Fmt.str "%a" Instance.pp_inline) inst_gen)
    (fun d ->
      let may = Core.Nullflow.may_null d ex19_ics in
      Enumerate.repairs d ex19_ics
      |> List.for_all (fun r ->
             Instance.fold
               (fun a ok ->
                 ok
                 &&
                 let args = Atom.args a in
                 let rec go i =
                   i >= Array.length args
                   || ((not (Value.is_null args.(i)))
                      || List.mem (Atom.pred a, i + 1) may)
                      && go (i + 1)
                 in
                 go 0)
               r true))

(* ------------------------------------------------------------------ *)
(* Section 6: bilateral predicates and the static HCF condition *)

let test_example24_bilateral () =
  (* IC = {T(x) -> exists y R(x,y), S(x,y) -> T(x)}: T is the only
     bilateral predicate *)
  let ics =
    [
      Constr.generic ~ante:[ atom "T" [ v "x" ] ] ~cons:[ atom "R" [ v "x"; v "y" ] ] ();
      Constr.generic ~ante:[ atom "S" [ v "x"; v "y" ] ] ~cons:[ atom "T" [ v "x" ] ] ();
    ]
  in
  Alcotest.(check (list string)) "bilateral = {T}" [ "T" ]
    (Hcfcheck.bilateral_predicates ics);
  Alcotest.(check bool) "static HCF holds" true (Hcfcheck.static_hcf ics)

let test_theorem5_violation () =
  (* P(x,y) -> P(y,x): P is bilateral and occurs twice *)
  let ics =
    [ Constr.generic ~ante:[ atom "P" [ v "x"; v "y" ] ] ~cons:[ atom "P" [ v "y"; v "x" ] ] () ]
  in
  Alcotest.(check bool) "condition fails" false (Hcfcheck.static_hcf ics);
  (* and the ground program is indeed not HCF on a witness instance *)
  let d = Instance.of_list [ ("P", [ vs "a"; vs "b" ]) ] in
  match Proggen.repair_program d ics with
  | Error msg -> Alcotest.failf "generation failed: %s" msg
  | Ok pg ->
      let g = Asp.Grounder.ground pg.Proggen.program in
      Alcotest.(check bool) "ground program not HCF" false (Asp.Hcf.is_hcf g)

let test_sufficient_not_necessary () =
  (* P(x,a) -> P(x,b): the static condition fails but the ground program is
     HCF (the paper's remark after Theorem 5) *)
  let ics =
    [
      Constr.generic
        ~ante:[ atom "P" [ v "x"; Term.str "a" ] ]
        ~cons:[ atom "P" [ v "x"; Term.str "b" ] ]
        ();
    ]
  in
  Alcotest.(check bool) "static condition fails" false (Hcfcheck.static_hcf ics);
  let d = Instance.of_list [ ("P", [ vs "c"; vs "a" ]) ] in
  match Proggen.repair_program d ics with
  | Error msg -> Alcotest.failf "generation failed: %s" msg
  | Ok pg ->
      let g = Asp.Grounder.ground pg.Proggen.program in
      Alcotest.(check bool) "ground program HCF anyway" true (Asp.Hcf.is_hcf g)

let test_denials_hcf () =
  (* Corollary 1: denial constraints have no bilateral predicates *)
  let ics =
    [
      Ic.Builder.denial [ atom "P" [ v "x"; v "y" ]; atom "Q" [ v "y" ] ];
      Ic.Builder.denial [ atom "P" [ v "x"; v "x" ] ];
    ]
  in
  Alcotest.(check (list string)) "no bilateral" [] (Hcfcheck.bilateral_predicates ics);
  Alcotest.(check bool) "static HCF" true (Hcfcheck.static_hcf ics)

let test_engine_shift_agreement () =
  (* the shifted and unshifted pipelines agree on an HCF scenario *)
  match Engine.run ~shift:false ex15_d [ ex15_ric ], Engine.run ex15_d [ ex15_ric ] with
  | Ok unshifted, Ok shifted ->
      Alcotest.(check bool) "shifted flag" true shifted.Engine.shifted;
      Alcotest.(check bool) "unshifted flag" false unshifted.Engine.shifted;
      check_repair_set "same repairs" unshifted.Engine.repairs shifted.Engine.repairs
  | Error m, _ | _, Error m -> Alcotest.failf "engine error: %s" m

(* ------------------------------------------------------------------ *)
(* Annotation machinery *)

let test_annot_names_unique () =
  let names = Core.Annot.Names.create () in
  (* relations whose sanitized names collide pairwise *)
  let rels = [ "R"; "r"; "R_a"; "r_a"; "R!a" ] in
  let bases = List.map (Core.Annot.Names.base names) rels in
  let annotated = List.map (Core.Annot.Names.annotated names) rels in
  let all = bases @ annotated in
  Alcotest.(check int) "all generated names distinct"
    (List.length all)
    (List.length (List.sort_uniq compare all));
  (* and resolution is a proper inverse *)
  List.iter2
    (fun rel b ->
      Alcotest.(check (option string)) ("base of " ^ rel) (Some rel)
        (Core.Annot.Names.rel_of_base names b))
    rels bases;
  List.iter2
    (fun rel a ->
      Alcotest.(check (option string)) ("annotated of " ^ rel) (Some rel)
        (Core.Annot.Names.rel_of_annotated names a))
    rels annotated

let test_annot_values () =
  List.iter
    (fun value ->
      Alcotest.(check bool)
        (Fmt.str "roundtrip %a" Value.pp value)
        true
        (Value.equal value (Core.Annot.decode_value (Core.Annot.encode_value value))))
    [ Value.null; vi 42; vi (-7); vs "x"; vs "Ann"; vs "with space" ]

let test_extract_ignores_non_tss () =
  let names = Core.Annot.Names.create () in
  let base = Core.Annot.Names.base names "P" in
  let annotated = Core.Annot.Names.annotated names "P" in
  let model =
    [
      { Asp.Ground.gpred = base; gargs = [ Asp.Syntax.Sym "a" ] };
      { Asp.Ground.gpred = annotated; gargs = [ Asp.Syntax.Sym "a"; Asp.Syntax.Sym "ta" ] };
      { Asp.Ground.gpred = annotated; gargs = [ Asp.Syntax.Sym "b"; Asp.Syntax.Sym "tss" ] };
      { Asp.Ground.gpred = "aux_0"; gargs = [ Asp.Syntax.Sym "a" ] };
    ]
  in
  let db = Core.Extract.database_of_model names model in
  Alcotest.(check int) "only the tss atom" 1 (Instance.cardinal db);
  Alcotest.(check bool) "b extracted" true
    (Instance.mem (Atom.make "P" [ vs "b" ]) db)

let test_engine_empty () =
  match Engine.run Instance.empty [ ex15_ric ] with
  | Error m -> Alcotest.failf "engine: %s" m
  | Ok report ->
      Alcotest.(check int) "empty db: one empty repair" 1
        (List.length report.Engine.repairs);
      Alcotest.(check bool) "the repair is empty" true
        (Instance.is_empty (List.hd report.Engine.repairs))

(* ------------------------------------------------------------------ *)
(* Unsupported shapes *)

let test_general_existential_rejected () =
  let ic =
    Constr.generic
      ~ante:[ atom "A" [ v "x" ]; atom "B" [ v "x" ] ]
      ~cons:[ atom "C" [ v "x"; v "z" ] ]
      ()
  in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Proggen.repair_program Instance.empty [ ic ]))

let test_phi_offset_rejected () =
  let ic =
    Constr.generic
      ~ante:[ atom "P" [ v "x"; v "y" ]; atom "P" [ v "y"; v "z" ] ]
      ~phi:[ Builtin.cmp Builtin.Gt (Builtin.evar "z") (Builtin.shift (Builtin.evar "x") 15) ]
      ()
  in
  Alcotest.(check bool) "offset rejected" true
    (Result.is_error (Proggen.repair_program Instance.empty [ ic ]))

(* ------------------------------------------------------------------ *)
(* The round trip the CLI offers: `cqanull export` prints Pi(D, IC) for
   DLV or clingo, and `cqanull solve` (or the external solver) reads it
   back.  Over every .cqa file under scenarios/ and test/cli/ that loads
   and has a repair program, in both dialects and both variants, the
   re-parsed text has the in-memory program's stable models, and the
   repairs read off them as [Engine.run_exn] reads them are the engine's.
   keys14.cqa is left out: its 16,384 models take seconds a solve. *)

let test_export_roundtrip () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun f ->
           let path = Filename.concat dir f in
           if Sys.is_directory path then files path
           else if Filename.check_suffix f ".cqa" && f <> "keys14.cqa" then [ path ]
           else [])
  in
  (* ground, shift when head-cycle-free, solve: what `cqanull solve` runs *)
  let models program =
    let solvable, _ = Asp.Shift.if_hcf (Asp.Grounder.ground program) in
    Asp.Solver.stable_models_atoms solvable
  in
  let printed ms =
    List.sort compare
      (List.map
         (fun m -> List.sort compare (List.map (Fmt.str "%a" Asp.Ground.pp_gatom) m))
         ms)
  in
  let runs = ref 0 in
  let check_variant path d ics (variant, vname) =
    match Proggen.repair_program ~variant d ics with
    | Error _ -> ()
    | Ok pg ->
        let expected = printed (models pg.Proggen.program) in
        let repairs = engine_repairs ~variant d ics in
        List.iter
          (fun (dialect, to_text) ->
            incr runs;
            let name = Fmt.str "%s (%s, %s)" path dialect vname in
            let reparsed = models (Asp.Aspparse.parse (to_text pg)) in
            Alcotest.(check (list (list string)))
              (name ^ ": stable models") expected (printed reparsed);
            check_repair_set (name ^ ": repairs") repairs
              (Repair.Order.minimal_among ~d
                 (Core.Extract.databases_of_models pg.Proggen.names reparsed)))
          [ ("dlv", Proggen.to_dlv); ("clingo", Proggen.to_clingo) ]
  in
  List.iter
    (fun path ->
      match Lang.Load.of_file path with
      | Error _ -> ()
      | Ok l ->
          let d = Lang.Load.final_instance l and ics = l.Lang.Load.ics in
          List.iter (check_variant path d ics)
            [ (Proggen.Literal, "literal"); (Proggen.Refined, "refined") ])
    (files "../scenarios" @ files "cli");
  Alcotest.(check bool) "export runs" true (!runs >= 96)

(* ------------------------------------------------------------------ *)
(* Theorem 4 as a property over random instances *)

let value_gen =
  QCheck.Gen.(
    frequency
      [ (1, return Value.null); (4, map (fun c -> Value.str (String.make 1 c)) (char_range 'a' 'c')) ])

let inst_gen preds size =
  QCheck.Gen.(
    let atom_gen =
      let* p, arity = oneofl preds in
      map (fun values -> Atom.make p values) (list_size (return arity) value_gen)
    in
    map Instance.of_atoms (list_size (int_range 0 size) atom_gen))

let scenario_uic_ric =
  [
    Constr.generic ~ante:[ atom "P" [ v "x"; v "y" ] ] ~cons:[ atom "T" [ v "x" ] ] ();
    Constr.generic ~ante:[ atom "T" [ v "x" ] ] ~cons:[ atom "R" [ v "x"; v "z" ] ] ();
    Constr.not_null ~pred:"P" ~arity:2 ~pos:1 ();
  ]

let prop_theorem4_random =
  QCheck.Test.make ~name:"Theorem 4: program repairs = Rep(D, IC)" ~count:80
    (QCheck.make
       ~print:(Fmt.str "%a" Instance.pp_inline)
       (inst_gen [ ("P", 2); ("T", 1); ("R", 2) ] 5))
    (fun d ->
      let model_based = Enumerate.repairs d scenario_uic_ric in
      let program_based = engine_repairs d scenario_uic_ric in
      let sort = List.sort Instance.compare in
      List.equal Instance.equal (sort model_based) (sort program_based))

let scenario_fd_fk =
  Ic.Builder.key ~pred:"R" ~arity:2 ~key:[ 1 ] ()
  @ [
      Ic.Builder.foreign_key ~child:"S" ~child_arity:2 ~child_cols:[ 2 ] ~parent:"R"
        ~parent_arity:2 ~parent_cols:[ 1 ] ();
    ]

let prop_theorem4_fd_fk =
  QCheck.Test.make ~name:"Theorem 4 on key+FK scenarios" ~count:60
    (QCheck.make
       ~print:(Fmt.str "%a" Instance.pp_inline)
       (inst_gen [ ("R", 2); ("S", 2) ] 4))
    (fun d ->
      let model_based = Enumerate.repairs d scenario_fd_fk in
      let program_based = engine_repairs d scenario_fd_fk in
      let sort = List.sort Instance.compare in
      List.equal Instance.equal (sort model_based) (sort program_based))

let prop_program_repairs_consistent =
  QCheck.Test.make ~name:"program repairs satisfy IC" ~count:80
    (QCheck.make
       ~print:(Fmt.str "%a" Instance.pp_inline)
       (inst_gen [ ("P", 2); ("T", 1); ("R", 2) ] 6))
    (fun d ->
      engine_repairs d scenario_uic_ric
      |> List.for_all (fun r -> Semantics.Nullsat.consistent r scenario_uic_ric))

(* Random acyclic constraint sets: predicates are ordered A(1), B(2), C(1),
   D(2) and every constraint points from a lower to a strictly higher
   predicate, so the dependency graph is a DAG and the set RIC-acyclic. *)
let random_ic_gen =
  let preds = [| ("A", 1); ("B", 2); ("C", 1); ("D", 2) |] in
  QCheck.Gen.(
    let* i = int_range 0 2 in
    let* j = int_range (i + 1) 3 in
    let name_i, arity_i = preds.(i) and name_j, arity_j = preds.(j) in
    let ante_vars = List.init arity_i (fun k -> v (Printf.sprintf "x%d" k)) in
    let* kind = if arity_j = 2 then int_range 0 2 else int_range 0 1 in
    match kind with
    | 0 ->
        (* NNC on the first attribute of the antecedent predicate *)
        return (Constr.not_null ~pred:name_i ~arity:arity_i ~pos:1 ())
    | 1 ->
        (* UIC: share the first variable, pad with repeats *)
        let cons_vars = List.init arity_j (fun _ -> v "x0") in
        return
          (Constr.generic
             ~ante:[ atom name_i ante_vars ]
             ~cons:[ atom name_j cons_vars ]
             ())
    | _ ->
        (* RIC: first attribute shared, second existential *)
        return
          (Constr.generic
             ~ante:[ atom name_i ante_vars ]
             ~cons:[ atom name_j [ v "x0"; v "zz" ] ]
             ()))

let random_scenario_gen =
  QCheck.Gen.(
    let value_gen =
      frequency
        [ (1, return Value.null); (4, map (fun c -> Value.str (String.make 1 c)) (char_range 'a' 'b')) ]
    in
    let atom_gen =
      let* p, arity = oneofl [ ("A", 1); ("B", 2); ("C", 1); ("D", 2) ] in
      map (fun values -> Atom.make p values) (list_size (return arity) value_gen)
    in
    let* ics = list_size (int_range 1 3) random_ic_gen in
    let* d = map Instance.of_atoms (list_size (int_range 0 5) atom_gen) in
    return (d, ics))

let prop_theorem4_random_ics =
  QCheck.Test.make ~name:"Theorem 4 on random acyclic IC sets" ~count:120
    (QCheck.make
       ~print:(fun (d, ics) ->
         Fmt.str "%a wrt {%s}" Instance.pp_inline d
           (String.concat "; " (List.map Constr.to_string ics)))
       random_scenario_gen)
    (fun (d, ics) ->
      QCheck.assume (Ic.Builder.non_conflicting ics = Ok ());
      QCheck.assume (Ic.Depgraph.is_ric_acyclic ics);
      let model_based = Enumerate.repairs d ics in
      let program_based = engine_repairs d ics in
      let sort = List.sort Instance.compare in
      List.equal Instance.equal (sort model_based) (sort program_based))

let prop_optimize_preserves_repairs =
  QCheck.Test.make ~name:"relevance pruning preserves the repairs" ~count:80
    (QCheck.make
       ~print:(fun (d, ics) ->
         Fmt.str "%a wrt {%s}" Instance.pp_inline d
           (String.concat "; " (List.map Constr.to_string ics)))
       random_scenario_gen)
    (fun (d, ics) ->
      QCheck.assume (Ic.Builder.non_conflicting ics = Ok ());
      QCheck.assume (Ic.Depgraph.is_ric_acyclic ics);
      let run optimize =
        match Proggen.repair_program ~optimize d ics with
        | Error _ -> None
        | Ok pg ->
            let g = Asp.Grounder.ground pg.Proggen.program in
            Some
              (List.sort Instance.compare
                 (Core.Extract.databases_of_models pg.Proggen.names
                    (Asp.Solver.stable_models_atoms g)))
      in
      match run false, run true with
      | Some a, Some b -> List.equal Instance.equal a b
      | None, None -> true
      | _ -> false)

let test_fireable () =
  (* S has data; the chain S -> Q -> R makes Q and R fireable; T is dead *)
  let d = Instance.of_list [ ("S", [ vs "a" ]) ] in
  let ics =
    [
      Constr.generic ~ante:[ atom "S" [ v "x" ] ] ~cons:[ atom "Q" [ v "x" ] ] ();
      Constr.generic ~ante:[ atom "Q" [ v "x" ] ] ~cons:[ atom "R" [ v "x" ] ] ();
      Constr.generic ~ante:[ atom "T" [ v "x" ] ] ~cons:[ atom "U" [ v "x" ] ] ();
    ]
  in
  Alcotest.(check (list string)) "fireable closure" [ "Q"; "R"; "S" ]
    (Proggen.fireable_predicates d ics);
  match Proggen.repair_program ~optimize:true d ics with
  | Error m -> Alcotest.failf "generation: %s" m
  | Ok pg ->
      Alcotest.(check bool) "dead IC pruned" true
        (not
           (String.length (Proggen.to_dlv pg) > 0
           && String.split_on_char '\n' (Proggen.to_dlv pg)
              |> List.exists (fun l -> String.length l >= 4 && String.sub l 0 4 = "d_t_")))

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "core"
    [
      ( "theorem4",
        [
          Alcotest.test_case "example 15" `Quick test_theorem4_example15;
          Alcotest.test_case "example 16" `Quick test_theorem4_example16;
          Alcotest.test_case "example 17" `Quick test_theorem4_example17;
          Alcotest.test_case "examples 19/21/23" `Quick test_theorem4_example19;
          Alcotest.test_case "example 18 cyclic" `Quick test_example18_cyclic;
          Alcotest.test_case "cyclic cascade filtered" `Quick test_cyclic_cascade_filtered;
          Alcotest.test_case "consistent database" `Quick test_consistent_database;
          Alcotest.test_case "literal/refined corner case" `Quick test_corner_case;
        ] );
      ( "annot",
        [
          Alcotest.test_case "unique names" `Quick test_annot_names_unique;
          Alcotest.test_case "value roundtrip" `Quick test_annot_values;
          Alcotest.test_case "extract ignores non-tss" `Quick test_extract_ignores_non_tss;
          Alcotest.test_case "empty database" `Quick test_engine_empty;
          Alcotest.test_case "fireable predicates" `Quick test_fireable;
        ] );
      ( "program-structure",
        [
          Alcotest.test_case "example 21" `Quick test_example21_structure;
          Alcotest.test_case "example 22 partitions" `Quick test_example22_partitions;
          Alcotest.test_case "example 23 stable models" `Quick test_example23_stable_models;
          Alcotest.test_case "general existential rejected" `Quick
            test_general_existential_rejected;
          Alcotest.test_case "phi offset rejected" `Quick test_phi_offset_rejected;
          Alcotest.test_case "export/solve round-trip" `Quick test_export_roundtrip;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "components" `Quick test_decompose_components;
          Alcotest.test_case "product" `Quick test_decompose_product;
          Alcotest.test_case "single component" `Quick test_decompose_single_component;
          Alcotest.test_case "null-flow positions" `Quick test_nullflow_positions;
        ] );
      ( "section6",
        [
          Alcotest.test_case "example 24 bilateral" `Quick test_example24_bilateral;
          Alcotest.test_case "theorem 5 violation" `Quick test_theorem5_violation;
          Alcotest.test_case "sufficient not necessary" `Quick
            test_sufficient_not_necessary;
          Alcotest.test_case "corollary 1 denials" `Quick test_denials_hcf;
          Alcotest.test_case "shift agreement" `Quick test_engine_shift_agreement;
        ] );
      ( "properties",
        qcheck
          [
            prop_theorem4_random;
            prop_theorem4_fd_fk;
            prop_theorem4_cyclic;
            prop_decompose_agrees;
            prop_theorem4_random_ics;
            prop_nullflow_sound;
            prop_optimize_preserves_repairs;
            prop_program_repairs_consistent;
          ] );
    ]
